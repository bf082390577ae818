(* The packed flat-bitset chase kernel, checked against the frozen PR 5
   reference kernel ({!Kernel_ref}, called directly — nothing in the
   pipeline dispatches to it), against the chase-based decision procedure
   ({!Propagate}), and against its own resource contract:

   - packed [implies]/[implies_ir] ≡ reference on random workloads, over
     narrow schemas (the fig. 5 profile) and wide ones (arity > 63, where
     the reference engine's int masks are saturated to "never prune" but
     the packed words keep pruning — decisions must still agree);
   - leave-one-out masks agree between the engines rule-for-rule;
   - on the XL sweep's relation shape (arity 16, 400 CFDs), the two
     kernels agree on MinCover's whole query sequence, and the packed
     verdicts match [Propagate.decide] on sampled queries;
   - wide schemas actually prune: [fast_impl.mask_prune_skips] is nonzero
     past arity 63 (the PR 5 kernel silently lost this);
   - the steady-state query loop allocates nothing on the minor heap. *)

open Relational
module C = Cfds.Cfd
module P = Propagation
module Ir = Propagation.Ir
module Ref = Propagation.Kernel_ref
module Gen = QCheck2.Gen

let seeds = 60
let gen_seed = Gen.int_range 0 1_000_000

let relation_workload ~min_arity ~max_arity ~max_lhs seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:1 ~min_arity ~max_arity
  in
  let rel = List.hd (Schema.relations schema) in
  let count = Workload.Rng.range rng 6 18 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs ~var_pct:50
  in
  (rel, sigma)

(* --- (a) packed ≡ reference, plain and masked, AST and IR --------------- *)

(* One workload, four engines (packed/reference × AST/IR), every CFD of Σ
   as the query — plus the leave-one-out masks the MinCover loops use.
   Both kernels take the same byte mask, so one mask drives both. *)
let engines_agree ~min_arity ~max_arity seed =
  let rel, sigma = relation_workload ~min_arity ~max_arity ~max_lhs:4 seed in
  let packed = P.Fast_impl.compile rel sigma in
  let refc = Ref.compile rel sigma in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let isigma = List.map (Ir.of_ast ctx) sigma in
  let ipacked = P.Fast_impl.compile_ir space isigma in
  let irefc = Ref.compile_ir space isigma in
  let plain_ok =
    List.for_all2
      (fun phi iphi ->
        P.Fast_impl.implies packed phi = Ref.implies refc phi
        && P.Fast_impl.implies_ir space ipacked iphi
           = Ref.implies_ir space irefc iphi)
      sigma isigma
  in
  let mask = P.Fast_impl.full_mask ipacked in
  let n = List.length isigma in
  let masked_ok = ref true in
  for i = 0 to n - 1 do
    P.Fast_impl.mask_clear mask i;
    List.iter
      (fun iphi ->
        if
          P.Fast_impl.implies_ir ~mask space ipacked iphi
          <> Ref.implies_ir ~mask space irefc iphi
        then masked_ok := false)
      isigma;
    P.Fast_impl.mask_set mask i
  done;
  plain_ok && !masked_ok

let prop_narrow_agree =
  QCheck2.Test.make ~name:"packed = reference (narrow schemas)" ~count:seeds
    gen_seed
    (engines_agree ~min_arity:4 ~max_arity:7)

let prop_wide_agree =
  QCheck2.Test.make ~name:"packed = reference (wide schemas, arity > 63)"
    ~count:seeds gen_seed
    (engines_agree ~min_arity:64 ~max_arity:80)

(* --- (b) the XL sweep's relation shape ------------------------------------ *)

(* One relation as [bench --xl] deals them: arity 16, exactly 400 CFDs
   with up to 9 LHS attributes at 50 % variables.  The seeds are the
   vetted XL instance seeds of the benchmark. *)
let xl_seeds = [ 8147; 8014; 8196 ]

let xl_relation seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:1 ~min_arity:16 ~max_arity:16
  in
  ( List.hd (Schema.relations schema),
    Workload.Cfd_gen.generate rng ~schema ~count:400 ~max_lhs:9 ~var_pct:50 )

(* The LHS-reduction probes MinCover issues for [iphi]: one per LHS
   attribute, that attribute dropped. *)
let lhs_probes iphi =
  if Ir.is_attr_eq iphi then []
  else Array.to_list (Array.map (fun (a, _) -> Ir.drop_lhs iphi a) iphi.Ir.lhs)

(* MinCover's query sequence, replayed on both kernels: every CFD plain,
   every LHS-reduction probe, and the cumulative leave-one-out walk in
   MinCover's candidate order — with the whole of Σ re-queried under every
   100th mask of the walk.  The first disagreement fails the test. *)
let test_xl_shape_agree () =
  List.iter
    (fun seed ->
      let rel, sigma = xl_relation seed in
      let ctx = Ir.create_ctx () in
      let space = Ir.space_of_schema ctx rel in
      let ilist = List.map (Ir.of_ast ctx) sigma in
      let isigma = Array.of_list ilist in
      let packed = P.Fast_impl.compile_ir space ilist in
      let refc = Ref.compile_ir space ilist in
      let check ?mask what iphi =
        let p = P.Fast_impl.implies_ir ?mask space packed iphi in
        if p <> Ref.implies_ir ?mask space refc iphi then
          Alcotest.failf "seed %d, %s: packed says %b on %a" seed what p C.pp
            (Ir.to_ast ctx iphi);
        p
      in
      Array.iter
        (fun iphi ->
          ignore (check "plain" iphi);
          List.iter
            (fun probe -> ignore (check "LHS reduction" probe))
            (lhs_probes iphi))
        isigma;
      let order = Array.init (Array.length isigma) Fun.id in
      Array.sort (fun i j -> Ir.compare isigma.(i) isigma.(j)) order;
      let mask = P.Fast_impl.full_mask packed in
      Array.iteri
        (fun step i ->
          P.Fast_impl.mask_clear mask i;
          if not (check ~mask "leave-one-out" isigma.(i)) then
            P.Fast_impl.mask_set mask i;
          if step mod 100 = 99 then
            Array.iter
              (fun iphi -> ignore (check ~mask "sampled mask" iphi))
              isigma)
        order)
    xl_seeds

(* The packed verdicts against the semantic oracle: [Propagate.decide]
   over the identity view runs the tableau chase of Theorem 3.1, sharing
   no code with either kernel.  On one XL-shape relation, a sample of
   MinCover's leave-one-out candidates (Σ ∖ {φ} ⊨ φ?) and LHS-reduction
   probes must get the same verdict from both; the sample must contain
   implied and non-implied queries alike. *)
let test_xl_shape_oracle () =
  let rel, sigma = xl_relation (List.hd xl_seeds) in
  let idview = P.Implication.identity_view rel in
  let oracle sigma phi =
    match
      P.Propagate.decide ~strategy:P.Propagate.Chase_only idview ~sigma phi
    with
    | P.Propagate.Propagated -> true
    | P.Propagate.Not_propagated _ | P.Propagate.Budget_exceeded -> false
  in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let ilist = List.map (Ir.of_ast ctx) sigma in
  let isigma = Array.of_list ilist in
  let packed = P.Fast_impl.compile_ir space ilist in
  let mask = P.Fast_impl.full_mask packed in
  let implied = ref 0 and not_implied = ref 0 in
  let agree ?mask what ~sigma iphi =
    let p = P.Fast_impl.implies_ir ?mask space packed iphi in
    let phi = Ir.to_ast ctx iphi in
    if p <> oracle sigma phi then
      Alcotest.failf "%s: packed says %b, the chase disagrees on %a" what p
        C.pp phi;
    incr (if p then implied else not_implied)
  in
  let n = Array.length isigma in
  for k = 0 to 11 do
    let i = k * (n / 12) in
    P.Fast_impl.mask_clear mask i;
    agree ~mask "leave-one-out"
      ~sigma:(List.filteri (fun j _ -> j <> i) sigma)
      isigma.(i);
    P.Fast_impl.mask_set mask i;
    List.iter (agree "LHS reduction" ~sigma) (lhs_probes isigma.(i))
  done;
  Fixtures.check_bool "sample holds implied queries" true (!implied > 0);
  Fixtures.check_bool "sample holds non-implied queries" true
    (!not_implied > 0)

(* --- (c) wide schemas keep mask pruning --------------------------------- *)

(* Regression for the PR 5 cliff: past [Sys.int_size - 2] attributes the
   int masks were all-zero and pruning silently switched off.  On the
   packed engine a rule watching an active position but requiring an
   inactive one must still be mask-skipped — at arity 70. *)
let test_wide_mask_pruning () =
  let wide =
    Schema.relation "W"
      (List.init 70 (fun i ->
           Attribute.make (Printf.sprintf "A%d" (i + 1)) Domain.string))
  in
  let sigma = [ C.fd "W" [ "A1"; "A2" ] "A3"; C.fd "W" [ "A5" ] "A6" ] in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Obs.set_enabled true;
      Obs.reset ();
      let compiled = P.Fast_impl.compile wide sigma in
      (* A1 is active in this query's chase; Σ's first rule watches A1 but
         also requires A2, so the packed mask must reject it. *)
      Fixtures.check_bool "not implied" false
        (P.Fast_impl.implies compiled (C.fd "W" [ "A1" ] "A9"));
      (* And the kernel still decides correctly at this arity. *)
      Fixtures.check_bool "implied" true
        (P.Fast_impl.implies compiled (C.fd "W" [ "A2"; "A1" ] "A3"));
      let s = Obs.snapshot () in
      let counter name =
        match List.assoc_opt name s.Obs.counters with Some v -> v | None -> 0
      in
      Fixtures.check_bool "mask_prune_skips > 0 past arity 63" true
        (counter "fast_impl.mask_prune_skips" > 0);
      Fixtures.check_bool "wide compile tallied" true
        (counter "fast_impl.wide_compiles" > 0))

(* --- (d) steady-state queries allocate nothing -------------------------- *)

let test_zero_allocation_steady_state () =
  let rel, sigma = relation_workload ~min_arity:8 ~max_arity:12 ~max_lhs:4 17 in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let ilist = List.map (Ir.of_ast ctx) sigma in
  let isigma = Array.of_list ilist in
  let compiled = P.Fast_impl.compile_ir space ilist in
  let nq = Array.length isigma in
  (* A closure allocated once, outside the measurement; its body must not
     touch the minor heap (plain for-loop — iterator closures would). *)
  let run () =
    for k = 0 to nq - 1 do
      ignore (P.Fast_impl.implies_ir space compiled isigma.(k) : bool)
    done
  in
  run ();
  (* Warm-up done: arena and query scratch are sized.  From here on the
     packed kernel's contract is zero minor-heap words per query. *)
  let rounds = 50 in
  let delta = Obs.minor_allocated (fun () -> for _ = 1 to rounds do run () done) in
  if delta <> 0.0 then
    Alcotest.failf "steady-state chase allocated %.0f minor words over %d rounds"
      delta (rounds * nq)

(* The masked variant drives MinCover's leave-one-out loop; it must be
   allocation-free too (the mask is reused, not rebuilt). *)
let test_zero_allocation_masked () =
  let rel, sigma = relation_workload ~min_arity:8 ~max_arity:12 ~max_lhs:4 404 in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let ilist = List.map (Ir.of_ast ctx) sigma in
  let isigma = Array.of_list ilist in
  let compiled = P.Fast_impl.compile_ir space ilist in
  let mask = P.Fast_impl.full_mask compiled in
  (* [~mask:m] would box a fresh [Some] per call; pass the option value
     itself ([?mask:opt]), allocated once here. *)
  let mask_opt = Some mask in
  let nq = Array.length isigma in
  let run () =
    for k = 0 to nq - 1 do
      P.Fast_impl.mask_clear mask k;
      ignore (P.Fast_impl.implies_ir ?mask:mask_opt space compiled isigma.(k) : bool);
      P.Fast_impl.mask_set mask k
    done
  in
  run ();
  let delta = Obs.minor_allocated (fun () -> for _ = 1 to 50 do run () done) in
  if delta <> 0.0 then
    Alcotest.failf "masked steady state allocated %.0f minor words" delta

let suite =
  [
    ("wide schemas keep mask pruning", `Quick, test_wide_mask_pruning);
    ("zero-allocation steady state", `Quick, test_zero_allocation_steady_state);
    ("zero-allocation masked queries", `Quick, test_zero_allocation_masked);
    ("XL shape: packed = reference", `Quick, test_xl_shape_agree);
    ("XL shape: packed = chase oracle", `Quick, test_xl_shape_oracle);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_narrow_agree; prop_wide_agree ]
