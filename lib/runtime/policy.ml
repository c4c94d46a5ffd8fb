module Rng = R2c_util.Rng

type backoff = {
  base : int;
  factor : int;
  cap : int;
  jitter : float;
  window : int;
  max_crashes : int;
  quarantine : int;
}

let default_backoff =
  {
    base = 50_000;
    factor = 2;
    cap = 1_600_000;
    jitter = 0.25;
    window = 2_000_000;
    max_crashes = 5;
    quarantine = 8_000_000;
  }

type escalation = Escalate_rerandomize | Escalate_mvee of { variants : int }

type t =
  | Same_image
  | Rerandomize
  | Backoff of backoff
  | Reactive of escalation

let escalation_to_string = function
  | Escalate_rerandomize -> "rerandomize"
  | Escalate_mvee { variants } -> Printf.sprintf "mvee(%d)" variants

let to_string = function
  | Same_image -> "same-image"
  | Rerandomize -> "rerandomize"
  | Backoff b ->
      Printf.sprintf "backoff(base=%d,cap=%d,breaker=%d/%d)" b.base b.cap b.max_crashes
        b.window
  | Reactive e -> Printf.sprintf "reactive->%s" (escalation_to_string e)

module Backoff_state = struct
  type s = {
    cfg : backoff;
    rng : Rng.t;
    mutable streak : int;
    mutable last_delay : int;
    mutable crash_times : int list;
    mutable quarantined_until : int;
  }

  let create ?(cfg = default_backoff) ~seed () =
    {
      cfg;
      rng = Rng.create seed;
      streak = 0;
      last_delay = 0;
      crash_times = [];
      quarantined_until = 0;
    }

  (* base * factor^streak without overflow: stop multiplying at the cap. *)
  let raw_delay cfg streak =
    let rec go d n =
      if n <= 0 || d >= cfg.cap then min d cfg.cap else go (d * cfg.factor) (n - 1)
    in
    go cfg.base streak

  (* Monotone by construction: jitter never lets a later delay undercut an
     earlier one, and the cap is an absolute ceiling — the property the
     supervisor (and test_properties) relies on. *)
  let next_delay s =
    let raw = raw_delay s.cfg s.streak in
    let jitter =
      if s.cfg.jitter <= 0.0 then 0
      else int_of_float (Rng.float s.rng (float_of_int raw *. s.cfg.jitter))
    in
    let d = min s.cfg.cap (max s.last_delay (raw + jitter)) in
    s.streak <- s.streak + 1;
    s.last_delay <- d;
    d

  let record_crash s ~now =
    s.crash_times <- now :: List.filter (fun c -> now - c < s.cfg.window) s.crash_times;
    if List.length s.crash_times >= s.cfg.max_crashes then begin
      s.quarantined_until <- now + s.cfg.quarantine;
      s.crash_times <- [];
      true
    end
    else false

  let quarantined_until s = s.quarantined_until
end
