module Defenses = R2c_defenses.Defenses

let target (d : Defenses.t) ~seed =
  let relink =
    if d.rerandomize then begin
      let counter = ref 0 in
      Some
        (fun () ->
          incr counter;
          Defenses.build_vulnapp d ~seed:(seed + (7777 * !counter)))
    end
    else None
  in
  Oracle.attach ?relink (Defenses.build_vulnapp d ~seed)

let scenario ?reference_seed d ~seed =
  let target = target d ~seed in
  let reference_seed = Option.value reference_seed ~default:(seed + 1000) in
  (Reference.measure (Defenses.build_vulnapp d ~seed:reference_seed), target)

let with_reference attack d ~seed =
  let reference, target = scenario d ~seed in
  attack ~reference ~target

let blind attack d ~seed = attack ~target:(target d ~seed)

let all =
  [
    ("rop", with_reference Rop.run);
    ("jit-rop", with_reference Jitrop.run);
    ("indirect-jit-rop", with_reference Indirect_jitrop.run);
    ( "aocr",
      fun d ~seed ->
        with_reference (Aocr.run ~rng:(R2c_util.Rng.create (seed * 977))) d ~seed );
    ("pirop", with_reference Pirop.run);
    ("blind-rop", blind (Blindrop.run ()));
    ("race", blind Race.run);
    ("ra-zeroing", blind Ra_zeroing.run);
  ]

let find name =
  let key s = String.lowercase_ascii (String.concat "" (String.split_on_char '-' s)) in
  List.find_opt (fun (n, _) -> key n = key name) all
