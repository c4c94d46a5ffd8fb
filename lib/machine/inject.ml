module Rng = R2c_util.Rng

type rates = {
  bitflip : float;
  load_corrupt : float;
  spurious_fault : float;
  fuel_cut : float;
}

let zero = { bitflip = 0.0; load_corrupt = 0.0; spurious_fault = 0.0; fuel_cut = 0.0 }

let rates_active r =
  r.bitflip > 0.0 || r.load_corrupt > 0.0 || r.spurious_fault > 0.0 || r.fuel_cut > 0.0

type counters = {
  bitflips : int;
  load_corruptions : int;
  spurious_faults : int;
  fuel_cuts : int;
}

type t = {
  rng : Rng.t;
  rates : rates;
  mutable bitflips : int;
  mutable load_corruptions : int;
  mutable spurious_faults : int;
  mutable fuel_cuts : int;
  mutable draws : int;
}

let create ?(rates = zero) ~seed () =
  {
    rng = Rng.create seed;
    rates;
    bitflips = 0;
    load_corruptions = 0;
    spurious_faults = 0;
    fuel_cuts = 0;
    draws = 0;
  }

let rates t = t.rates

let counters t =
  {
    bitflips = t.bitflips;
    load_corruptions = t.load_corruptions;
    spurious_faults = t.spurious_faults;
    fuel_cuts = t.fuel_cuts;
  }

(* A rate of exactly 0 must not even consume randomness: a rate-0 injector
   is bitwise-indistinguishable from no injector (the chaos harness's
   baseline-equivalence guarantee). *)
let hit t rate =
  rate > 0.0
  && begin
       t.draws <- t.draws + 1;
       Rng.float t.rng 1.0 < rate
     end

let draws t = t.draws

(* A draw at or above every active rate fires nothing, whichever hook
   made it: [n] such draws in a row replay a run that fired nothing. *)
let skip_quiet t ~draws =
  let r = t.rates in
  let floor =
    Float.max (Float.max r.bitflip r.load_corrupt) (Float.max r.spurious_fault r.fuel_cut)
  in
  Rng.skip_floats_at_least t.rng ~n:draws ~floor
  && begin
       t.draws <- t.draws + draws;
       true
     end

let flip_random_bit t mem =
  match Mem.writable_page_addrs mem with
  | [] -> ()
  | pages ->
      let page = List.nth pages (Rng.int t.rng (List.length pages)) in
      let addr = page + Rng.int t.rng Addr.page_size in
      Mem.flip_bit mem ~addr ~bit:(Rng.int t.rng 8);
      t.bitflips <- t.bitflips + 1

let on_step t ~mem ~rip =
  if hit t t.rates.bitflip then flip_random_bit t mem;
  if hit t t.rates.spurious_fault then begin
    t.spurious_faults <- t.spurious_faults + 1;
    Fault.raise_fault (Injected { rip; kind = "spurious-segv" })
  end

let on_load t v =
  if hit t t.rates.load_corrupt then begin
    t.load_corruptions <- t.load_corruptions + 1;
    v lxor (1 lsl Rng.int t.rng 63)
  end
  else v

let cut_fuel t budget =
  if budget > 0 && hit t t.rates.fuel_cut then begin
    t.fuel_cuts <- t.fuel_cuts + 1;
    Rng.int t.rng (max 1 (budget / 4))
  end
  else budget
