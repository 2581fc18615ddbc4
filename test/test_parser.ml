(* Parser/pretty-printer tests: concrete programs, precedence, statement
   forms, error reporting, end-to-end parse->compile->run, and a round-trip
   property over generated ASTs. *)

open Untenable
open Rustlite.Ast
module Parser = Rustlite.Parser
module Pretty = Rustlite.Pretty
module Eval = Rustlite.Eval
module Kcrate = Rustlite.Kcrate
module Value = Rustlite.Value
module World = Framework.World

let ast =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (serialize e))
    (fun a b -> String.equal (serialize a) (serialize b))

let parses_to expected src =
  match Parser.parse src with
  | Ok e -> Alcotest.check ast src expected e
  | Error err -> Alcotest.failf "parse error at %d:%d: %s" err.Parser.line err.Parser.col err.Parser.msg

let parse_fails src =
  match Parser.parse src with
  | Error _ -> ()
  | Ok e -> Alcotest.failf "expected parse error, got %s" (serialize e)

let test_literals () =
  parses_to (Lit_int 42L) "42";
  parses_to (Lit_int (-7L)) "-7";
  parses_to (Lit_int 255L) "0xff";
  parses_to (Lit_bool true) "true";
  parses_to (Lit_str "hi\n") "\"hi\\n\"";
  parses_to Lit_unit "()";
  parses_to (None_ T_i64) "None";
  parses_to (None_ (T_option T_bool)) "None:Option<bool>";
  parses_to (Some_ (Lit_int 1L)) "Some(1)"

let test_precedence () =
  parses_to
    (Binop (Add, Lit_int 1L, Binop (Mul, Lit_int 2L, Lit_int 3L)))
    "1 + 2 * 3";
  parses_to
    (Binop (Mul, Binop (Add, Lit_int 1L, Lit_int 2L), Lit_int 3L))
    "(1 + 2) * 3";
  parses_to
    (Binop (LOr, Binop (Lt, Var "x", Lit_int 1L),
            Binop (LAnd, Binop (Gt, Var "y", Lit_int 2L), Lit_bool true)))
    "x < 1 || y > 2 && true";
  parses_to
    (Binop (Sub, Binop (Sub, Lit_int 10L, Lit_int 3L), Lit_int 2L))
    "10 - 3 - 2";
  parses_to
    (Binop (BOr, Binop (BAnd, Var "a", Var "b"), Var "c"))
    "a & b | c";
  parses_to (Not (Binop (Eq, Var "x", Lit_int 0L))) "!(x == 0)";
  parses_to (Binop (Shl, Lit_int 1L, Lit_int 4L)) "1 << 4"

let test_let_and_blocks () =
  parses_to
    (Let { name = "x"; mut = false; value = Lit_int 1L;
           body = Binop (Add, Var "x", Lit_int 2L) })
    "let x = 1; x + 2";
  parses_to
    (Let { name = "x"; mut = true; value = Lit_int 0L;
           body = Seq [ Assign ("x", Lit_int 5L); Var "x" ] })
    "let mut x = 0; x = 5; x";
  (* a trailing semicolon makes the program unit-valued *)
  parses_to
    (Seq [ Call ("trace", [ Lit_str "hi" ]); Lit_unit ])
    "trace(\"hi\");"

let test_control_flow () =
  parses_to
    (If (Binop (Lt, Var "x", Lit_int 3L), Lit_int 1L, Lit_int 2L))
    "if x < 3 { 1 } else { 2 }";
  parses_to
    (If (Lit_bool true, Call ("trace", [ Lit_str "t" ]), Lit_unit))
    "if true { trace(\"t\") }";
  parses_to
    (While (Binop (Gt, Var "n", Lit_int 0L), Assign ("n", Binop (Sub, Var "n", Lit_int 1L))))
    "while n > 0 { n = n - 1 }";
  parses_to
    (For ("i", Lit_int 0L, Lit_int 10L, Assign ("acc", Binop (Add, Var "acc", Var "i"))))
    "for i in 0..10 { acc = acc + i }"

let test_match_and_if_let () =
  let expected =
    Match_option
      { scrutinee = Call ("map_get", [ Lit_str "m"; Lit_int 0L ]); bind = "v";
        some_branch = Var "v"; none_branch = Lit_int (-1L) }
  in
  parses_to expected "match map_get(\"m\", 0) { Some(v) => v, None => -1 }";
  parses_to expected "match map_get(\"m\", 0) { None => -1, Some(v) => v }";
  parses_to
    (Match_option
       { scrutinee = Call ("task_current", []); bind = "t";
         some_branch = Call ("task_pid", [ Borrow "t" ]); none_branch = Lit_unit })
    "if let Some(t) = task_current() { task_pid(&t) }"

let test_arrays () =
  parses_to
    (Index (Array_lit [ Lit_int 1L; Lit_int 2L ], Lit_int 0L))
    "[1, 2][0]";
  parses_to
    (Let { name = "a"; mut = true;
           value = Array_lit [ Lit_int 0L; Lit_int 0L ];
           body = Seq [ Index_assign ("a", Lit_int 1L, Lit_int 9L);
                        Index (Var "a", Lit_int 1L) ] })
    "let mut a = [0, 0]; a[1] = 9; a[1]"

let test_builtins () =
  parses_to (Str_len (Lit_str "abc")) "len(\"abc\")";
  parses_to (Str_parse (Lit_str "42")) "parse(\"42\")";
  parses_to (Str_cmp (Var "a", Var "b")) "strcmp(a, b)";
  parses_to (Panic "boom") "panic(\"boom\")";
  parses_to (Drop_ "sk") "drop(sk)";
  parses_to (Call ("sk_lookup", [ Lit_int 80L ])) "sk_lookup(80)";
  parses_to (Call ("rb_submit", [ Var "res" ])) "rb_submit(res)"

let test_comments () =
  parses_to (Lit_int 1L) "// leading comment\n1 /* trailing */";
  parses_to (Binop (Add, Lit_int 1L, Lit_int 2L)) "1 + /* inline */ 2"

let test_parse_errors () =
  parse_fails "let = 5;";
  parse_fails "1 +";
  parse_fails "if x { 1 } else";
  parse_fails "match x { Some(v) => v }";
  parse_fails "\"unterminated";
  parse_fails "[]";
  parse_fails "1 2";
  parse_fails "panic(42)"

let test_error_location () =
  match Parser.parse "let x = 1;\nlet y = ;" with
  | Error err -> Alcotest.(check int) "error on line 2" 2 err.Parser.line
  | Ok _ -> Alcotest.fail "should not parse"

(* parse -> toolchain -> run, end to end from source text *)
let test_source_to_execution () =
  let src = {|
    // sum the numbers below 100 divisible by 3
    let mut total = 0;
    for i in 0..100 {
      if i % 3 == 0 { total = total + i; } else { () }
    }
    total
  |} in
  let body = Parser.parse_exn src in
  let world = World.create_populated () in
  match Rustlite.Toolchain.compile { Rustlite.Toolchain.name = "sum3"; maps = []; body } with
  | Error e -> Alcotest.failf "toolchain: %s" (Format.asprintf "%a" Rustlite.Toolchain.pp_error e)
  | Ok ext -> (
    let loaded = Result.get_ok (Framework.Pipeline.load_rustlite world ext) in
    match (Framework.Invoke.run world loaded).Framework.Invoke.outcome with
    | Framework.Invoke.Finished 1683L -> ()
    | o ->
      Alcotest.failf "expected 1683, got %s"
        (Format.asprintf "%a" Framework.Invoke.pp_outcome o))

let test_source_with_resources () =
  let src = {|
    if let Some(sk) = sk_lookup(8080) {
      let port = sk_port(&sk);
      trace_i64("saw port ", port);
      port
    } else { 0 }
  |} in
  let body = Parser.parse_exn src in
  let world = World.create_populated () in
  let kctx = { Kcrate.hctx = World.new_hctx world; map_ids = [] } in
  match Eval.run ~kctx body with
  | Eval.Ret (Value.V_int 8080L) ->
    Alcotest.(check int) "RAII released the sock" 0
      (List.length
         (Kernel_sim.Kernel.health world.World.kernel).Kernel_sim.Kernel.leaked_refs)
  | o -> Alcotest.failf "expected 8080, got %s" (Format.asprintf "%a" Eval.pp_outcome o)

(* ---------------- round-trip property ---------------- *)

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [ map (fun v -> Lit_int (Int64.of_int v)) (int_range (-1000) 1000);
              map (fun b -> Lit_bool b) bool;
              oneofl [ Var "x"; Var "y"; Lit_unit; Lit_str "s"; None_ T_i64 ] ]
        in
        if size <= 1 then leaf
        else
          let sub = self (size / 2) in
          oneof
            [ leaf;
              map2 (fun op (a, b) -> Binop (op, a, b))
                (oneofl [ Add; Sub; Mul; Div; LAnd; LOr; Eq; Lt; Shl; BAnd; BOr ])
                (pair sub sub);
              map (fun e -> Not e) sub;
              map (fun e -> Some_ e) sub;
              map3 (fun c t f -> If (c, t, f)) sub sub sub;
              map2 (fun v b -> Let { name = "z"; mut = false; value = v; body = b })
                sub sub;
              map2 (fun a b -> Seq [ a; b ]) sub sub;
              map3
                (fun s sb nb ->
                  Match_option { scrutinee = s; bind = "w"; some_branch = sb;
                                 none_branch = nb })
                sub sub sub;
              map2 (fun a b -> Call ("trace_i64", [ a; b ])) sub sub ]))

(* normalise sequencing artifacts before comparing: the printer/parser pair
   preserves semantics but may rebalance Seq nesting *)
let rec normalize e =
  match e with
  | Seq es -> (
    let es = List.concat_map (fun e -> match normalize e with Seq i -> i | x -> [ x ]) es in
    match es with [ x ] -> x | es -> Seq es)
  | Let { name; mut; value; body } ->
    Let { name; mut; value = normalize value; body = normalize body }
  | Binop (op, a, b) -> Binop (op, normalize a, normalize b)
  | Not e -> Not (normalize e)
  | Neg e -> Neg (normalize e)
  | Some_ e -> Some_ (normalize e)
  | If (c, t, f) -> If (normalize c, normalize t, normalize f)
  | While (c, b) -> While (normalize c, normalize b)
  | For (x, lo, hi, b) -> For (x, normalize lo, normalize hi, normalize b)
  | Match_option { scrutinee; bind; some_branch; none_branch } ->
    Match_option
      { scrutinee = normalize scrutinee; bind; some_branch = normalize some_branch;
        none_branch = normalize none_branch }
  | Array_lit es -> Array_lit (List.map normalize es)
  | Index (a, i) -> Index (normalize a, normalize i)
  | Index_assign (x, i, v) -> Index_assign (x, normalize i, normalize v)
  | Assign (x, v) -> Assign (x, normalize v)
  | Call (f, args) -> Call (f, List.map normalize args)
  | Str_len e -> Str_len (normalize e)
  | Str_parse e -> Str_parse (normalize e)
  | Str_cmp (a, b) -> Str_cmp (normalize a, normalize b)
  | Lit_unit | Lit_bool _ | Lit_int _ | Lit_str _ | Var _ | None_ _ | Borrow _
  | Panic _ | Drop_ _ -> e

let roundtrip_property =
  QCheck.Test.make ~count:300 ~name:"pretty |> parse round-trips the AST"
    (QCheck.make ~print:Pretty.to_string gen_expr)
    (fun e ->
      let text = Pretty.to_string e in
      match Parser.parse text with
      | Error err ->
        QCheck.Test.fail_reportf "did not re-parse (%s at %d:%d):\n%s" err.Parser.msg
          err.Parser.line err.Parser.col text
      | Ok e' -> String.equal (serialize (normalize e)) (serialize (normalize e')))

(* robustness: arbitrary input must yield Ok or Error, never an escaped
   exception (the toolchain front door faces untrusted text) *)
let parser_total =
  QCheck.Test.make ~count:500 ~name:"parser is total on arbitrary input"
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 80) QCheck.Gen.printable)
    (fun s ->
      match Parser.parse s with Ok _ | Error _ -> true)

let suite =
  [
    QCheck_alcotest.to_alcotest parser_total;
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "let and blocks" `Quick test_let_and_blocks;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "match and if-let" `Quick test_match_and_if_let;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error location" `Quick test_error_location;
    Alcotest.test_case "source to execution" `Quick test_source_to_execution;
    Alcotest.test_case "source with resources" `Quick test_source_with_resources;
    QCheck_alcotest.to_alcotest roundtrip_property;
  ]
