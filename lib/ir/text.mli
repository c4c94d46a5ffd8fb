(** Textual IR: a parseable surface syntax, so programs can live in files
    and the [r2cc] driver works like a real compiler.

    Syntax sketch (see [examples/triangle.r2c]):

    {v
    global counter : 8 = word 5
    global table : 16 = addr f, str "hi\00"

    func f(v0) {
      slots 64, 8
    L0:
      v1 = add v0, 1
      v2 = cmp.lt v1, @counter
      v3 = load [v1 + 8]
      store [v1 + 0], v3
      v4 = slot 0
      v5 = call f(v1)
      v6 = calli v4(v1)
      call !print_int(v5)
      cbr v2, L1, L2
    L1:
      br L2
    L2:
      ret v1
    }
    v}

    Operands: integer literals (decimal or 0x hex, negative allowed),
    [v<n>] virtual registers, [@name] global addresses, [&name] function
    addresses. Callee forms: [name] direct, [!name] builtin, [calli op]
    indirect. The first block of a function is its entry; [main] must be
    defined.

    [to_string] prints this exact syntax; [parse (to_string p)] returns a
    program structurally equal to [p] (the round-trip property test). *)

type error

val error_to_string : error -> string

val to_string : Ir.program -> string

val parse : string -> (Ir.program, error) result
