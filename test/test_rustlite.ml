(* rustlite tests: type checker, ownership checker, evaluator semantics
   (checked arithmetic, RAII), signing, toolchain pipeline, and the trusted
   kernel crate. *)

open Untenable
open Rustlite.Ast
module Typeck = Rustlite.Typeck
module Ownck = Rustlite.Ownck
module Eval = Rustlite.Eval
module Sign = Rustlite.Sign
module Toolchain = Rustlite.Toolchain
module Kcrate = Rustlite.Kcrate
module Value = Rustlite.Value
module Guard = Runtime.Guard
module Kernel = Kernel_sim.Kernel
module Bpf_map = Maps.Bpf_map
module World = Framework.World

(* ---------------- type checker ---------------- *)

let well_typed e =
  match Typeck.check e with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "unexpected type error: %s" err.Typeck.what

let ill_typed e =
  match Typeck.check e with
  | Ok t -> Alcotest.failf "ill-typed program accepted with type %s" (ty_to_string t)
  | Error _ -> ()

let test_typeck_accepts () =
  well_typed (Binop (Add, Lit_int 1L, Lit_int 2L));
  well_typed (If (Lit_bool true, Lit_int 1L, Lit_int 2L));
  well_typed
    (Let { name = "x"; mut = true; value = Lit_int 0L;
           body = Seq [ Assign ("x", Lit_int 5L); Var "x" ] });
  well_typed
    (Match_option
       { scrutinee = Some_ (Lit_int 3L); bind = "v"; some_branch = Var "v";
         none_branch = Lit_int 0L });
  well_typed (Index (Array_lit [ Lit_int 1L; Lit_int 2L ], Lit_int 0L));
  well_typed (Str_parse (Lit_str "42"));
  well_typed (While (Lit_bool false, Lit_unit));
  well_typed (For ("i", Lit_int 0L, Lit_int 3L, Var "i"))

let test_typeck_rejects () =
  ill_typed (Binop (Add, Lit_int 1L, Lit_bool true));
  ill_typed (If (Lit_int 1L, Lit_int 1L, Lit_int 2L));
  ill_typed (If (Lit_bool true, Lit_int 1L, Lit_bool false));
  ill_typed (Var "nope");
  ill_typed (Call ("no_such_function", []));
  ill_typed (Call ("map_get", [ Lit_int 1L; Lit_int 0L ])); (* wrong arg type *)
  ill_typed (Call ("map_get", [ Lit_str "m" ])); (* wrong arity *)
  ill_typed (Let { name = "x"; mut = false; value = Lit_int 0L;
                   body = Assign ("x", Lit_int 1L) }); (* immutable assign *)
  ill_typed (Array_lit [ Lit_int 1L; Lit_bool true ]); (* heterogeneous *)
  ill_typed (Array_lit []); (* no type *)
  ill_typed (Index (Lit_int 3L, Lit_int 0L));
  ill_typed (Match_option { scrutinee = Lit_int 1L; bind = "v";
                            some_branch = Var "v"; none_branch = Lit_int 0L });
  ill_typed (Str_len (Lit_int 5L));
  ill_typed (Not (Lit_int 1L))

let test_typeck_resource_types () =
  (* task_current yields Option<Task>; borrowing the payload types as &Task *)
  well_typed
    (Match_option
       { scrutinee = Call ("task_current", []); bind = "t";
         some_branch = Call ("task_pid", [ Borrow "t" ]); none_branch = Lit_int 0L });
  (* passing the resource by value where a borrow is expected fails *)
  ill_typed
    (Match_option
       { scrutinee = Call ("task_current", []); bind = "t";
         some_branch = Call ("task_pid", [ Var "t" ]); none_branch = Lit_int 0L })

(* ---------------- ownership checker ---------------- *)

let owned_ok e =
  (match Typeck.check e with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "type error in ownership test: %s" err.Typeck.what);
  match Ownck.check e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "unexpected ownership error: %s" err.Ownck.what

let owned_bad e =
  (match Typeck.check e with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "type error in ownership test: %s" err.Typeck.what);
  match Ownck.check e with
  | Ok () -> Alcotest.fail "ownership violation accepted"
  | Error _ -> ()

(* helper: a resource-producing expression *)
let with_sock body =
  Match_option
    { scrutinee = Call ("sk_lookup", [ Lit_int 8080L ]); bind = "sk";
      some_branch = body; none_branch = Lit_unit }

let test_own_use_after_move () =
  (* moving sk into a new binding, then using the old name *)
  owned_bad
    (with_sock
       (Let { name = "sk2"; mut = false; value = Var "sk";
              body = Seq [ Drop_ "sk"; Lit_unit ] }));
  owned_ok
    (with_sock
       (Let { name = "sk2"; mut = false; value = Var "sk";
              body = Seq [ Drop_ "sk2"; Lit_unit ] }))

let test_own_double_submit () =
  (* the rb_submit double-free is a compile error: the paper's RAII story *)
  let prog submit_twice =
    Match_option
      { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
        bind = "res";
        some_branch =
          (if submit_twice then
             Seq [ Call ("rb_submit", [ Var "res" ]); Call ("rb_submit", [ Var "res" ]) ]
           else Call ("rb_submit", [ Var "res" ]));
        none_branch = Lit_unit }
  in
  owned_ok (prog false);
  owned_bad (prog true)

let test_own_copy_types_unaffected () =
  owned_ok
    (Let { name = "x"; mut = false; value = Lit_int 5L;
           body = Seq [ Var "x"; Var "x"; Binop (Add, Var "x", Var "x") ] })

let test_own_index_borrows () =
  owned_ok
    (Let { name = "a"; mut = false; value = Array_lit [ Lit_int 1L; Lit_int 2L ];
           body =
             Binop (Add, Index (Var "a", Lit_int 0L), Index (Var "a", Lit_int 1L)) })

let test_own_reassign_revives () =
  owned_ok
    (Let { name = "x"; mut = true; value = Array_lit [ Lit_int 1L ];
           body =
             Seq
               [ Let { name = "y"; mut = false; value = Var "x"; body = Lit_unit };
                 Assign ("x", Array_lit [ Lit_int 2L ]);
                 Index (Var "x", Lit_int 0L) ] })

let test_own_branch_merge () =
  let prog =
    Match_option
      { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
        bind = "res";
        some_branch =
          Seq
            [ If (Lit_bool true, Call ("rb_submit", [ Var "res" ]), Lit_unit);
              Drop_ "res" ];
        none_branch = Lit_unit }
  in
  owned_bad prog

let test_own_borrow_of_moved () =
  let prog =
    Match_option
      { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
        bind = "res";
        some_branch =
          Seq
            [ Call ("rb_submit", [ Var "res" ]);
              Call ("rb_write_i64", [ Borrow "res"; Lit_int 0L; Lit_int 1L ]) ];
        none_branch = Lit_unit }
  in
  owned_bad prog

let test_own_loop_move () =
  let prog =
    Match_option
      { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
        bind = "res";
        some_branch = While (Lit_bool true, Call ("rb_submit", [ Var "res" ]));
        none_branch = Lit_unit }
  in
  owned_bad prog

(* ---------------- evaluator ---------------- *)

let run ?fuel ?wall_ns ?(maps = []) e =
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let map_ids =
    List.map
      (fun def ->
        let m = World.register_map world def in
        (def.Bpf_map.name, m.Bpf_map.id))
      maps
  in
  let kctx = { Kcrate.hctx; map_ids } in
  (world, hctx, Eval.run ?fuel ?wall_ns ~kctx e)

let expect_int expected e =
  match run e with
  | _, _, Eval.Ret (Value.V_int v) -> Alcotest.(check int64) "result" expected v
  | _, _, other -> Alcotest.failf "expected int, got %s" (Format.asprintf "%a" Eval.pp_outcome other)

let expect_panic substring e =
  match run e with
  | _, _, Eval.Terminated { Guard.reason = Guard.Language_panic msg; _ } ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    if not (contains msg substring) then
      Alcotest.failf "panic %S does not mention %S" msg substring
  | _, _, other ->
    Alcotest.failf "expected panic, got %s" (Format.asprintf "%a" Eval.pp_outcome other)

let test_eval_arithmetic () =
  expect_int 7L (Binop (Add, Lit_int 3L, Lit_int 4L));
  expect_int (-12L) (Binop (Mul, Lit_int 3L, Lit_int (-4L)));
  expect_int 2L (Binop (Rem, Lit_int 17L, Lit_int 5L));
  expect_int 4L (Binop (Shr, Lit_int 16L, Lit_int 2L))

let test_eval_overflow_panics () =
  expect_panic "overflow" (Binop (Add, Lit_int Int64.max_int, Lit_int 1L));
  expect_panic "overflow" (Binop (Mul, Lit_int Int64.max_int, Lit_int 2L));
  expect_panic "overflow" (Neg (Lit_int Int64.min_int));
  expect_panic "overflow" (Binop (Shl, Lit_int 1L, Lit_int 64L))

let test_eval_div_by_zero_panics () =
  expect_panic "divide by zero" (Binop (Div, Lit_int 5L, Lit_int 0L));
  expect_panic "remainder" (Binop (Rem, Lit_int 5L, Lit_int 0L))

let test_eval_index_oob_panics () =
  expect_panic "index out of bounds"
    (Index (Array_lit [ Lit_int 1L ], Lit_int 3L))

let test_eval_loops () =
  expect_int 499500L
    (Let { name = "acc"; mut = true; value = Lit_int 0L;
           body =
             Seq
               [ For ("i", Lit_int 0L, Lit_int 1000L,
                      Assign ("acc", Binop (Add, Var "acc", Var "i")));
                 Var "acc" ] });
  expect_int 10L
    (Let { name = "x"; mut = true; value = Lit_int 0L;
           body =
             Seq
               [ While (Binop (Lt, Var "x", Lit_int 10L),
                        Assign ("x", Binop (Add, Var "x", Lit_int 1L)));
                 Var "x" ] })

let test_eval_parse_and_strings () =
  expect_int 42L
    (Match_option
       { scrutinee = Str_parse (Lit_str " 42 "); bind = "v"; some_branch = Var "v";
         none_branch = Lit_int (-1L) });
  expect_int (-1L)
    (Match_option
       { scrutinee = Str_parse (Lit_str "xyz"); bind = "v"; some_branch = Var "v";
         none_branch = Lit_int (-1L) });
  expect_int 5L (Str_len (Lit_str "hello"))

let test_eval_watchdog () =
  match run ~wall_ns:10_000L (While (Lit_bool true, Lit_unit)) with
  | _, _, Eval.Terminated { Guard.reason = Guard.Watchdog_timeout; _ } -> ()
  | _, _, other -> Alcotest.failf "expected watchdog, got %s"
                     (Format.asprintf "%a" Eval.pp_outcome other)

let test_eval_fuel () =
  match run ~fuel:50L (While (Lit_bool true, Lit_unit)) with
  | _, _, Eval.Terminated { Guard.reason = Guard.Fuel_exhausted; _ } -> ()
  | _, _, other -> Alcotest.failf "expected fuel exhaustion, got %s"
                     (Format.asprintf "%a" Eval.pp_outcome other)

let test_eval_raii_scope_drop () =
  (* a socket acquired in a scope is released when the scope ends *)
  let world, _, outcome =
    run
      (Seq
         [ Match_option
             { scrutinee = Call ("sk_lookup", [ Lit_int 8080L ]); bind = "sk";
               some_branch = Call ("sk_port", [ Borrow "sk" ]);
               none_branch = Lit_int 0L };
           Lit_int 1L ])
  in
  (match outcome with
  | Eval.Ret (Value.V_int 1L) -> ()
  | other -> Alcotest.failf "expected 1, got %s" (Format.asprintf "%a" Eval.pp_outcome other));
  Alcotest.(check int) "sock ref released by RAII" 0
    (List.length (Kernel.health world.World.kernel).Kernel.leaked_refs)

let test_eval_raii_panic_cleanup () =
  let world, hctx, outcome =
    run
      (Match_option
         { scrutinee = Call ("sk_lookup", [ Lit_int 8080L ]); bind = "sk";
           some_branch = Panic "boom"; none_branch = Lit_unit })
  in
  (match outcome with
  | Eval.Terminated t ->
    Alcotest.(check int) "cleanup ran" 1 t.Guard.cleaned_resources
  | other -> Alcotest.failf "expected panic, got %s" (Format.asprintf "%a" Eval.pp_outcome other));
  Alcotest.(check int) "no leak" 0
    (List.length (Kernel.health world.World.kernel).Kernel.leaked_refs);
  ignore hctx

let test_eval_explicit_drop () =
  let world, _, _ =
    run
      (Match_option
         { scrutinee = Call ("sk_lookup", [ Lit_int 8080L ]); bind = "sk";
           some_branch = Drop_ "sk"; none_branch = Lit_unit })
  in
  Alcotest.(check int) "dropped early" 0
    (List.length (Kernel.health world.World.kernel).Kernel.leaked_refs)

(* ---------------- kcrate ---------------- *)

let rb_def =
  { Bpf_map.name = "rb"; kind = Bpf_map.Ringbuf; key_size = 0; value_size = 0;
    max_entries = 1024; lock_off = None }

let counter_def =
  { Bpf_map.name = "c"; kind = Bpf_map.Array; key_size = 4; value_size = 8;
    max_entries = 4; lock_off = None }

let test_kcrate_map_roundtrip () =
  let _, _, outcome =
    run ~maps:[ counter_def ]
      (Seq
         [ Call ("map_set", [ Lit_str "c"; Lit_int 2L; Lit_int 91L ]);
           Match_option
             { scrutinee = Call ("map_get", [ Lit_str "c"; Lit_int 2L ]); bind = "v";
               some_branch = Var "v"; none_branch = Lit_int (-1L) } ])
  in
  match outcome with
  | Eval.Ret (Value.V_int 91L) -> ()
  | other -> Alcotest.failf "expected 91, got %s" (Format.asprintf "%a" Eval.pp_outcome other)

let test_kcrate_ringbuf_flow () =
  let world, _, outcome =
    run ~maps:[ rb_def ]
      (Match_option
         { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
           bind = "res";
           some_branch =
             Seq
               [ Call ("rb_write_i64", [ Borrow "res"; Lit_int 0L; Lit_int 7L ]);
                 Call ("rb_submit", [ Var "res" ]); Lit_int 1L ];
           none_branch = Lit_int 0L })
  in
  (match outcome with
  | Eval.Ret (Value.V_int 1L) -> ()
  | other -> Alcotest.failf "flow failed: %s" (Format.asprintf "%a" Eval.pp_outcome other));
  (* userspace sees exactly one record *)
  let rb =
    List.find_map Bpf_map.ringbuf (Bpf_map.Registry.all world.World.maps)
    |> Option.get
  in
  match Maps.Ringbuf.consume rb with
  | [ record ] -> Alcotest.(check int64) "payload" 7L (Bytes.get_int64_le record 0)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_kcrate_reservation_dropped_if_not_submitted () =
  let world, _, _ =
    run ~maps:[ rb_def ]
      (Match_option
         { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
           bind = "res"; some_branch = Lit_unit (* res dropped: RAII discard *);
           none_branch = Lit_unit })
  in
  let rb =
    List.find_map Bpf_map.ringbuf (Bpf_map.Registry.all world.World.maps)
    |> Option.get
  in
  Alcotest.(check int) "no dangling reservation" 0
    (List.length (Maps.Ringbuf.outstanding_reservations rb))

let test_kcrate_task_storage_via_borrow () =
  let tls =
    { Bpf_map.name = "tls"; kind = Bpf_map.Hash; key_size = 4; value_size = 8;
      max_entries = 8; lock_off = None }
  in
  let _, _, outcome =
    run ~maps:[ tls ]
      (Match_option
         { scrutinee = Call ("task_current", []); bind = "t";
           some_branch =
             Seq
               [ Call ("task_storage_set", [ Lit_str "tls"; Borrow "t"; Lit_int 9L ]);
                 Match_option
                   { scrutinee =
                       Call ("task_storage_get",
                             [ Lit_str "tls"; Borrow "t"; Lit_int 0L ]);
                     bind = "v"; some_branch = Var "v"; none_branch = Lit_int (-1L) } ];
           none_branch = Lit_int (-2L) })
  in
  match outcome with
  | Eval.Ret (Value.V_int 9L) -> ()
  | other -> Alcotest.failf "expected 9, got %s" (Format.asprintf "%a" Eval.pp_outcome other)

(* ---------------- sign / toolchain ---------------- *)

let test_sha256_vector () =
  Alcotest.(check string) "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sign.to_hex (Sign.sha256 "abc"));
  Alcotest.(check string) "sha256(empty)"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sign.to_hex (Sign.sha256 ""))

let test_hmac_properties () =
  let s1 = Sign.sign ~key:"k1" "payload" in
  let s2 = Sign.sign ~key:"k1" "payload" in
  let s3 = Sign.sign ~key:"k2" "payload" in
  Alcotest.(check string) "deterministic" s1.Sign.mac_hex s2.Sign.mac_hex;
  Alcotest.(check bool) "key matters" false (String.equal s1.Sign.mac_hex s3.Sign.mac_hex);
  Alcotest.(check bool) "validate ok" true (Sign.validate ~key:"k1" "payload" s1);
  Alcotest.(check bool) "validate bad payload" false
    (Sign.validate ~key:"k1" "payloaX" s1)

let test_toolchain_pipeline () =
  let good = { Toolchain.name = "ok"; maps = []; body = Lit_int 1L } in
  (match Toolchain.compile good with
  | Ok ext -> Alcotest.(check bool) "validates" true (Toolchain.validate ext)
  | Error _ -> Alcotest.fail "good program rejected");
  let bad_ty = { Toolchain.name = "bad"; maps = []; body = Binop (Add, Lit_int 1L, Lit_bool true) } in
  (match Toolchain.compile bad_ty with
  | Error (Toolchain.Type_error _) -> ()
  | _ -> Alcotest.fail "type error not caught");
  let bad_own =
    { Toolchain.name = "bad2"; maps = [ rb_def ];
      body =
        Match_option
          { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 8L ]);
            bind = "r";
            some_branch =
              Seq [ Call ("rb_submit", [ Var "r" ]); Call ("rb_submit", [ Var "r" ]) ];
            none_branch = Lit_unit } }
  in
  match Toolchain.compile bad_own with
  | Error (Toolchain.Ownership_error _) -> ()
  | _ -> Alcotest.fail "ownership error not caught"

let test_toolchain_tamper () =
  let good = { Toolchain.name = "ok"; maps = []; body = Lit_int 1L } in
  match Toolchain.compile good with
  | Error _ -> Alcotest.fail "good program rejected"
  | Ok ext ->
    let evil = { ext with Toolchain.src = { ext.Toolchain.src with Toolchain.body = Lit_int 666L } } in
    Alcotest.(check bool) "tamper detected" false (Toolchain.validate evil)

let test_serialize_distinguishes () =
  Alcotest.(check bool) "different programs, different payloads" false
    (String.equal (serialize (Lit_int 1L)) (serialize (Lit_int 2L)));
  Alcotest.(check bool) "structurally equal serialize equal" true
    (String.equal
       (serialize (Binop (Add, Var "x", Lit_int 1L)))
       (serialize (Binop (Add, Var "x", Lit_int 1L))))

let suite =
  [
    Alcotest.test_case "typeck accepts" `Quick test_typeck_accepts;
    Alcotest.test_case "typeck rejects" `Quick test_typeck_rejects;
    Alcotest.test_case "typeck resources" `Quick test_typeck_resource_types;
    Alcotest.test_case "own: use after move" `Quick test_own_use_after_move;
    Alcotest.test_case "own: double submit" `Quick test_own_double_submit;
    Alcotest.test_case "own: copy types" `Quick test_own_copy_types_unaffected;
    Alcotest.test_case "own: branch merge" `Quick test_own_branch_merge;
    Alcotest.test_case "own: loop move" `Quick test_own_loop_move;
    Alcotest.test_case "own: borrow of moved" `Quick test_own_borrow_of_moved;
    Alcotest.test_case "own: index borrows" `Quick test_own_index_borrows;
    Alcotest.test_case "own: reassign revives" `Quick test_own_reassign_revives;
    Alcotest.test_case "eval arithmetic" `Quick test_eval_arithmetic;
    Alcotest.test_case "eval overflow panics" `Quick test_eval_overflow_panics;
    Alcotest.test_case "eval div-by-zero panics" `Quick test_eval_div_by_zero_panics;
    Alcotest.test_case "eval index oob panics" `Quick test_eval_index_oob_panics;
    Alcotest.test_case "eval loops" `Quick test_eval_loops;
    Alcotest.test_case "eval parse/strings" `Quick test_eval_parse_and_strings;
    Alcotest.test_case "eval watchdog" `Quick test_eval_watchdog;
    Alcotest.test_case "eval fuel" `Quick test_eval_fuel;
    Alcotest.test_case "eval RAII scope drop" `Quick test_eval_raii_scope_drop;
    Alcotest.test_case "eval RAII panic cleanup" `Quick test_eval_raii_panic_cleanup;
    Alcotest.test_case "eval explicit drop" `Quick test_eval_explicit_drop;
    Alcotest.test_case "kcrate map roundtrip" `Quick test_kcrate_map_roundtrip;
    Alcotest.test_case "kcrate ringbuf flow" `Quick test_kcrate_ringbuf_flow;
    Alcotest.test_case "kcrate reservation RAII" `Quick test_kcrate_reservation_dropped_if_not_submitted;
    Alcotest.test_case "kcrate task storage" `Quick test_kcrate_task_storage_via_borrow;
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vector;
    Alcotest.test_case "hmac properties" `Quick test_hmac_properties;
    Alcotest.test_case "toolchain pipeline" `Quick test_toolchain_pipeline;
    Alcotest.test_case "toolchain tamper" `Quick test_toolchain_tamper;
    Alcotest.test_case "serialize" `Quick test_serialize_distinguishes;
  ]

(* ------------------------------------------------------------------ *)
(* The proposal-side soundness property (the §3 claim, as a theorem):
   any program the toolchain accepts — whatever it does with resources,
   arithmetic, loops or panics — leaves the simulated kernel healthy:
   no oops, no leaked references, no held locks, no leaked pool chunks.
   Panics and guard terminations are safe outcomes; kernel death is not. *)
(* ------------------------------------------------------------------ *)

let rl_gen_maps =
  [ { Bpf_map.name = "rb"; kind = Bpf_map.Ringbuf; key_size = 0; value_size = 0;
      max_entries = 1024; lock_off = None };
    { Bpf_map.name = "m"; kind = Bpf_map.Array; key_size = 4; value_size = 8;
      max_entries = 8; lock_off = None };
    { Bpf_map.name = "locked"; kind = Bpf_map.Array; key_size = 4; value_size = 16;
      max_entries = 2; lock_off = Some 0 } ]

(* i64-typed leaf expressions *)
let rl_gen_leaf =
  QCheck.Gen.(
    oneof
      [ map (fun v -> Lit_int (Int64.of_int v)) (int_range (-100) 100);
        return (Call ("prandom", []));
        return (Call ("pid_tgid", []));
        return (Call ("ktime", [])) ])

(* statements built from resource idioms and (possibly panicking) compute *)
let rl_gen_stmt =
  QCheck.Gen.(
    let* tag = int_bound 7 in
    let* leaf = rl_gen_leaf in
    let* leaf2 = rl_gen_leaf in
    match tag with
    | 0 ->
      (* socket held across some work, dropped by RAII *)
      return
        (Match_option
           { scrutinee = Call ("sk_lookup", [ Lit_int 8080L ]); bind = "sk";
             some_branch = Seq [ Call ("sk_port", [ Borrow "sk" ]); Lit_unit ];
             none_branch = Lit_unit })
    | 1 ->
      (* reservation submitted *)
      return
        (Match_option
           { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 16L ]);
             bind = "res";
             some_branch =
               Seq
                 [ Call ("rb_write_i64", [ Borrow "res"; Lit_int 0L; leaf ]);
                   Call ("rb_submit", [ Var "res" ]) ];
             none_branch = Lit_unit })
    | 2 ->
      (* reservation dropped (RAII discard) *)
      return
        (Match_option
           { scrutinee = Call ("ringbuf_reserve", [ Lit_str "rb"; Lit_int 8L ]);
             bind = "res"; some_branch = Lit_unit; none_branch = Lit_unit })
    | 3 ->
      (* lock guard over a small critical section *)
      return
        (Match_option
           { scrutinee = Call ("lock", [ Lit_str "locked" ]); bind = "g";
             some_branch = Seq [ Call ("map_set", [ Lit_str "m"; Lit_int 1L; leaf ]) ];
             none_branch = Lit_unit })
    | 4 ->
      (* pool chunk round-trip *)
      return
        (Match_option
           { scrutinee = Call ("pool_alloc", []); bind = "c";
             some_branch = Call ("chunk_write", [ Borrow "c"; Lit_int 0L; leaf ]);
             none_branch = Lit_unit })
    | 5 ->
      (* possibly-panicking arithmetic (div by random, checked ops) *)
      return (Seq [ Binop (Div, leaf, leaf2); Lit_unit ])
    | 6 ->
      (* a bounded loop of map traffic *)
      return
        (For ("i", Lit_int 0L, Lit_int 8L,
              Call ("map_set", [ Lit_str "m"; Var "i"; leaf ])))
    | _ ->
      (* maybe an explicit panic mid-program *)
      map (fun b -> if b then Panic "injected" else Lit_unit) bool)

let rl_gen_program =
  QCheck.Gen.(
    let* stmts = list_size (int_range 1 12) rl_gen_stmt in
    return (Seq (stmts @ [ Lit_int 0L ])))

let rl_soundness =
  QCheck.Test.make ~count:300
    ~name:"toolchain-accepted programs leave the kernel healthy"
    (QCheck.make ~print:Rustlite.Pretty.to_string rl_gen_program)
    (fun body ->
      let src = { Toolchain.name = "gen"; maps = rl_gen_maps; body } in
      match Toolchain.compile src with
      | Error _ -> QCheck.assume_fail () (* only accepted programs matter *)
      | Ok ext -> (
        let world = World.create_populated () in
        match Framework.Pipeline.load_rustlite world ext with
        | Error _ -> false
        | Ok loaded ->
          let report =
            Framework.Invoke.run
              ~opts:
                { Framework.Invoke.default_opts with
                  Framework.Invoke.fuel = Some 200_000L
                }
              world loaded
          in
          let healthy =
            Kernel.healthy (Kernel.health world.World.kernel)
          in
          let safe_outcome =
            match report.Framework.Invoke.outcome with
            | Framework.Invoke.Finished _ | Framework.Invoke.Stopped _
            | Framework.Invoke.Exhausted _ ->
              true
            | Framework.Invoke.Crashed _ -> false
          in
          safe_outcome && healthy && report.Framework.Invoke.resources_outstanding = 0))

let suite = suite @ [ QCheck_alcotest.to_alcotest rl_soundness ]
