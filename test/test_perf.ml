(* Differential tests for the two fetch paths: every program must
   produce bit-identical architectural state and counters under the
   reference (hash-probing) dispatch and [Cpu.run] — tier 3's cold loop
   over the bodies' decoded slots, compiling hot code unless R2C_JIT=0
   (CI runs the suite both ways). This is the OSR-style equivalence
   contract the decoded fetch ships under — any divergence here is a bug
   in it by definition. *)

open R2c_machine
module D = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Gen = R2c_fuzz.Gen
module Corpus = R2c_fuzz.Corpus
module Opts = R2c_compiler.Opts
module Link = R2c_compiler.Link
module Asm = R2c_compiler.Asm

let fuel = 2_000_000

(* Everything the contract covers, folded into one comparable string.
   Cycles go through bits_of_float so "identical" means bit-identical,
   not approximately equal. *)
let fingerprint cpu result =
  Printf.sprintf "%s|exit:%d|cycles:%Lx|insns:%d|imiss:%d|iacc:%d|depth:%d|out:%s"
    (match result with
    | Cpu.Halted -> "halted"
    | Cpu.Fuel_exhausted -> "fuel"
    | Cpu.Faulted f -> "fault:" ^ Fault.to_string f)
    cpu.Cpu.exit_code
    (Int64.bits_of_float cpu.Cpu.cycles)
    cpu.Cpu.insns
    (Icache.misses cpu.Cpu.icache)
    (Icache.accesses cpu.Cpu.icache)
    cpu.Cpu.max_depth (Cpu.output cpu)

let check_both_tiers name img =
  let load () = Loader.load ~strict_align:true ~profile:Cost.epyc_rome img in
  let reference =
    let cpu = load () in
    fingerprint cpu (Cpu.run_reference cpu ~fuel)
  in
  let fast =
    let cpu = load () in
    fingerprint cpu (Cpu.run cpu ~fuel)
  in
  Alcotest.(check string) name reference fast

(* 25 generator-v2 programs at pinned seeds, each compiled under the full
   R2C config and the baseline (seed-diverse variants exercise BTRA
   sleds, booby traps, layout shuffling through both fetch tiers). *)
let test_generated_programs () =
  for i = 1 to 25 do
    let seed = 7001 + (137 * i) in
    let p = Gen.v2 ~seed () in
    check_both_tiers
      (Printf.sprintf "gen seed %d full" seed)
      (Pipeline.compile ~seed (D.full ()) p);
    if i mod 5 = 0 then
      check_both_tiers
        (Printf.sprintf "gen seed %d baseline" seed)
        (Pipeline.compile ~seed D.baseline p)
  done

(* Every committed fuzz reproducer replays through both tiers too.
   Vacuous while the corpus is empty; load-bearing the moment a
   divergence hunt lands a .r2c file. *)
let test_corpus_replay () =
  List.iter
    (fun path ->
      match Corpus.load path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok p ->
          check_both_tiers (path ^ " full") (Pipeline.compile ~seed:11 (D.full ()) p);
          check_both_tiers (path ^ " baseline") (Pipeline.compile ~seed:11 D.baseline p))
    (Corpus.files ~dir:"corpus")

(* What sits at one text address: no instruction start (padding,
   instruction interiors — executing one is an invalid opcode), a decoded
   instruction and its byte length, or an intercepted library entry. *)
type slot = P_none | P_insn of Insn.t * int | P_builtin of string

(* The placement-built fetch (shared body slots, located by the image's
   decoder, relocations resolved against the linker's external addresses)
   against a table of the instructions resolved by name
   ([Image.iter_insns]), slot for slot at every text address. *)
let by_name_table (img : Image.t) =
  let table = Array.make (max 1 img.text_len) P_none in
  Image.iter_insns img (fun addr insn len -> table.(addr - img.text_base) <- P_insn (insn, len));
  Hashtbl.iter
    (fun addr name -> table.(addr - img.text_base) <- P_builtin name)
    img.builtin_addrs;
  table

(* What the cold loop fetches at [addr] through decoder [d]. *)
let fetch (img : Image.t) d addr =
  match Hashtbl.find_opt img.builtin_addrs addr with
  | Some name -> P_builtin name
  | None -> (
      match Image.locate d addr with
      | -1 -> P_none
      | i -> (
          let v = Image.view d i in
          match Int32.to_int (Bytes.get_int32_ne v.v_starts (4 * (addr - v.v_entry))) with
          | 0 -> P_none
          | e when e > 0 -> P_insn (v.v_insns.(e - 1), v.v_sizes.(e - 1))
          | e -> P_insn (Image.fixed d v (-e - 1), v.v_sizes.(v.v_relocs.(-e - 1).r_index))))

(* A fresh decoder and the image's shared one: a copy with new text that
   kept its parent's memo cell would serve the parent's chunks. *)
let check_predecode name (img : Image.t) =
  let want = by_name_table img in
  List.iter
    (fun (which, got) ->
      Array.iteri
        (fun off slot ->
          if slot <> got (img.text_base + off) then
            Alcotest.failf "%s: %s slot 0x%x differs from the by-name table" name which
              (img.text_base + off))
        want)
    [
      ("predecode", fetch img (Image.predecode img));
      ("predecoded", fetch img (Image.predecoded img));
    ]

let test_predecode_matches_by_name () =
  let p = R2c_workloads.Genprog.generate ~seed:13 ~funcs:30 in
  let coords link = { Pipeline.cfg = D.full (); body_seed = 9; link_seed = Some link } in
  check_predecode "cold" (Pipeline.compile_cold (coords 100) p);
  let r = Pipeline.rerand_create () in
  check_predecode "warm" (fst (Pipeline.compile_incremental r (coords 100) p));
  (* The rotation reuses the warm build's cached body slots. *)
  check_predecode "rotated" (fst (Pipeline.compile_incremental r (coords 101) p));
  (* The mutant NOPs the instruction at the first checked return address.
     Its parent's fetch table, decoder and text page there are built
     first: a copy that kept any of those cells would show the parent's
     instruction. *)
  let checked = R2c_defenses.Defenses.build_vulnapp R2c_defenses.Defenses.r2c_checked ~seed:4 in
  let ra = Hashtbl.fold (fun a () m -> min a m) (Image.sites checked).checked_sites max_int in
  let len =
    match Image.code_at checked ra with
    | Some (_, len) -> len
    | None -> Alcotest.fail "no instruction at the first checked site"
  in
  ignore (fetch checked (Image.predecoded checked) ra);
  ignore (Image.text_page checked (Addr.page_of ra));
  let mutant = R2c_analysis.Selfcheck.apply R2c_analysis.Selfcheck.Drop_btra_postcheck checked in
  check_predecode "self-check mutated" mutant;
  let nop = Insn.Nop len in
  Alcotest.(check bool) "mutant code_at shows the NOP" true
    (Image.code_at mutant ra = Some (nop, len));
  Alcotest.(check bool) "mutant predecoded shows the NOP" true
    (fetch mutant (Image.predecoded mutant) ra = P_insn (nop, len));
  Alcotest.(check (option int)) "mutant text page shows the NOP" (Some (Image.encode_byte nop 0))
    (Option.map
       (fun page -> Char.code (Bytes.get page (Addr.page_offset ra)))
       (Image.text_page mutant (Addr.page_of ra)))

(* Fault equality: a faulting program must report the identical fault
   (class, address, counters at detonation) from both tiers. *)
let raw_image insns =
  let emitted = [ Asm.of_raw { Opts.rname = "main"; rinsns = insns; rbooby_trap = false } ] in
  Link.link ~opts:Opts.default ~main:"main" emitted []

let test_fault_equality () =
  check_both_tiers "div by zero"
    (raw_image
       Insn.[ Mov (Reg RAX, Imm (Abs 1)); Mov (Reg RBX, Imm (Abs 0)); Div (RAX, Reg RBX); Ret ]);
  check_both_tiers "wild store"
    (raw_image
       Insn.[ Mov (Reg RAX, Imm (Abs 0x666000)); Mov (Mem (mem ~base:RAX ()), Imm (Abs 1)); Ret ]);
  check_both_tiers "trap"
    (raw_image Insn.[ Trap ])

(* Fuel exhaustion must cut both tiers at the same instruction. *)
let test_fuel_equality () =
  let img =
    raw_image Insn.[ Binop (Add, RCX, Imm (Abs 1)); Jmp (TSym ("main", 0)) ]
  in
  let load () = Loader.load ~strict_align:true ~profile:Cost.epyc_rome img in
  let fp run =
    let cpu = load () in
    fingerprint cpu (run cpu ~fuel:997)
  in
  Alcotest.(check string) "fuel cut" (fp Cpu.run_reference) (fp Cpu.run)

let suite =
  [
    ( "perf",
      [
        Alcotest.test_case "25 pinned-seed programs, both tiers" `Quick test_generated_programs;
        Alcotest.test_case "corpus replay, both tiers" `Quick test_corpus_replay;
        Alcotest.test_case "fault equality" `Quick test_fault_equality;
        Alcotest.test_case "placement predecode = code_list predecode" `Quick
          test_predecode_matches_by_name;
        Alcotest.test_case "fuel-exhaustion equality" `Quick test_fuel_equality;
      ] );
  ]
