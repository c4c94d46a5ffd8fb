let guess_return_address ~btras =
  assert (btras >= 0);
  1.0 /. float_of_int (btras + 1)

let guess_n_return_addresses ~btras ~n =
  assert (n >= 0);
  guess_return_address ~btras ** float_of_int n

let pick_benign_heap_pointer ~benign ~btdps =
  assert (benign >= 0 && btdps >= 0 && benign + btdps > 0);
  float_of_int benign /. float_of_int (benign + btdps)

let expected_btdps_in_leak ~min_per_func ~max_per_func ~frames =
  assert (min_per_func <= max_per_func);
  float_of_int (min_per_func + max_per_func) /. 2.0 *. float_of_int frames
