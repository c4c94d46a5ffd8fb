module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Opts = R2c_compiler.Opts
module Insn = R2c_machine.Insn

type t = {
  name : string;
  cfg : Dconfig.t;
  cph : bool;
  rerandomize : bool;
  shadow_stack : bool;
  paper_overhead : string;
  cpp_support : bool;
  footnote : string;
}

let unprotected =
  {
    name = "unprotected";
    cfg = Dconfig.baseline;
    cph = false;
    rerandomize = false;
    shadow_stack = false;
    paper_overhead = "0";
    cpp_support = true;
    footnote = "W^X only";
  }

let aslr =
  {
    name = "aslr";
    cfg = { Dconfig.baseline with aslr = true };
    cph = false;
    rerandomize = false;
    shadow_stack = false;
    paper_overhead = "~0";
    cpp_support = true;
    footnote = "page-granular slides";
  }

let codearmor =
  {
    name = "CodeArmor";
    cfg =
      {
        Dconfig.baseline with
        shuffle_functions = true;
        xom = true;
        aslr = true;
      };
    cph = true;
    rerandomize = true;
    shadow_stack = false;
    paper_overhead = "6.9";
    cpp_support = false;
    footnote = "no exception support; code locators similar to CPH";
  }

let tasr =
  {
    name = "TASR";
    cfg = { Dconfig.baseline with aslr = true };
    cph = false;
    rerandomize = true;
    shadow_stack = false;
    paper_overhead = "2.1";
    cpp_support = false;
    footnote = "re-randomizes at I/O; C-only source analysis";
  }

let stackarmor =
  {
    name = "StackArmor";
    cfg =
      {
        Dconfig.baseline with
        shuffle_stack_slots = true;
        slot_padding_max = 128;
        aslr = true;
      };
    cph = false;
    rerandomize = false;
    shadow_stack = false;
    paper_overhead = "28.2";
    cpp_support = false;
    footnote = "binary-only stack diversification; measures cycles";
  }

let readactor =
  {
    name = "Readactor";
    cfg =
      {
        Dconfig.baseline with
        shuffle_functions = true;
        randomize_regalloc = true;
        xom = true;
        aslr = true;
        booby_trap_funcs = 32;
      };
    cph = true;
    rerandomize = false;
    shadow_stack = false;
    paper_overhead = "6.4";
    cpp_support = false;
    footnote = "code-pointer hiding; broken by AOCR";
  }

let krx =
  {
    name = "kR^X";
    cfg =
      {
        Dconfig.baseline with
        btra =
          Some
            {
              Dconfig.total = 1;
              setup = Dconfig.Push;
              to_builtins = false;
              max_post = 1;
              check_after_return = false;
            };
        shuffle_functions = true;
        xom = true;
        aslr = true;
        oia = true;
        booby_trap_funcs = 8;
      };
    cph = false;
    rerandomize = false;
    shadow_stack = false;
    paper_overhead = "n/a (kernel)";
    cpp_support = false;
    footnote = "single return-address decoy; no heap pointer protection";
  }

let r2c =
  {
    name = "R2C";
    cfg = Dconfig.full ();
    cph = false;
    rerandomize = false;
    shadow_stack = false;
    paper_overhead = "6.6-8.5";
    cpp_support = true;
    footnote = "this work";
  }

let all = [ unprotected; aslr; codearmor; tasr; stackarmor; readactor; krx; r2c ]

(* R2C variants for the ablation/extension experiments. *)

let r2c_naive =
  {
    r2c with
    name = "R2C-naive";
    cfg = Dconfig.full ~setup:Dconfig.Naive ();
    footnote = "rejected kR^X-style decoy scheme: the race window of Section 5.1";
  }

let r2c_checked =
  {
    r2c with
    name = "R2C-checked";
    cfg = Dconfig.full_checked;
    footnote = "Section 7.3 hardening: BTRA consistency checks after return";
  }

let r2c_nopie =
  {
    r2c with
    name = "R2C-noPIE";
    cfg = { (Dconfig.full ()) with aslr = false };
    footnote = "non-PIE build: the worker-respawn brute-force scenario";
  }

let r2c_checked_nopie =
  {
    r2c_checked with
    name = "R2C-checked-noPIE";
    cfg = { Dconfig.full_checked with aslr = false };
  }

let r2c_rerand =
  {
    r2c with
    name = "R2C-rerand";
    rerandomize = true;
    footnote = "Section 7.3: load-time re-randomization on worker respawn";
  }

(* Section 8.2: enforcement-based comparison. A shadow stack kills every
   return-address corruption outright — and is blind to AOCR's
   forward-edge whole-function reuse, which is the paper's point about
   orthogonality. *)
let cfi =
  {
    name = "CFI-shadow";
    cfg = { Dconfig.baseline with aslr = true };
    cph = false;
    rerandomize = false;
    shadow_stack = true;
    paper_overhead = "n/a (Section 8.2)";
    cpp_support = true;
    footnote = "backward-edge CFI (shadow stack); forward edges unchecked";
  }

let r2c_cfi =
  {
    r2c with
    name = "R2C+CFI";
    shadow_stack = true;
    footnote = "Section 8.2: R2C and CFI are orthogonal and compose";
  }

let variants =
  [ r2c_naive; r2c_checked; r2c_nopie; r2c_checked_nopie; r2c_rerand; cfi; r2c_cfi ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun t -> String.lowercase_ascii t.name = name) (all @ variants)

let trampoline_name f = "__tramp_" ^ f

let build t ~seed ~extra_raw (p : Ir.program) =
  let p', opts = Pipeline.instrument ~extra_raw ~seed t.cfg p in
  let opts =
    if t.shadow_stack then { opts with Opts.shadow_stack = true } else opts
  in
  let opts =
    if not t.cph then opts
    else begin
      (* Code-pointer hiding: every taken function address resolves to a
         jump-only trampoline; the trampolines live in (execute-only) text
         and are shuffled like everything else. *)
      let trampolines =
        List.map
          (fun (f : Ir.func) ->
            {
              Opts.rname = trampoline_name f.name;
              rinsns = [ Insn.Jmp (Insn.TSym (f.name, 0)) ];
              rbooby_trap = false;
            })
          p'.Ir.funcs
      in
      {
        opts with
        Opts.func_alias = trampoline_name;
        raw_funcs = opts.Opts.raw_funcs @ trampolines;
      }
    end
  in
  R2c_compiler.Driver.compile ~opts p'

let build_vulnapp t ~seed =
  build t ~seed ~extra_raw:R2c_workloads.Vulnapp.runtime_stubs
    (R2c_workloads.Vulnapp.program ())
