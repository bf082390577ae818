open Relational
module C = Cfds.Cfd
module P = Cfds.Pattern

(* Observability.  The chase is the engine's innermost hot loop, so it
   tallies into plain locals and publishes once per [chase] call — the
   disabled-sink cost is one branch at the end, not one per rule. *)
let c_compiles = Obs.counter "fast_impl_ref.compiles"
let c_chases = Obs.counter "fast_impl_ref.chases"
let c_rounds = Obs.counter "fast_impl_ref.chase_rounds"
let c_rule_apps = Obs.counter "fast_impl_ref.rule_applications"
let c_firings = Obs.counter "fast_impl_ref.rule_firings"
let c_mask_skips = Obs.counter "fast_impl_ref.mask_prune_skips"

type pat =
  | Wild
  | Const of Value.t

type rule =
  | Standard of {
      lhs : (int * pat) array;
      rhs_pos : int;
      rhs : pat;
      (* Applicability bitmasks over positions (0 when the schema is too
         wide for an int bitmask — then the premise is always evaluated).
         A cross-row instantiation needs every LHS position constrained
         somehow ([pair_mask]); a single-row (t,t) instantiation passes
         wildcards vacuously and only needs the Const positions bound
         ([self_mask]).  Testing them against the chase's active-position
         mask skips the premise scan for the vast majority of rules. *)
      pair_mask : int;
      self_mask : int;
    }
  | Attr_eq of int * int

type compiled = {
  (* Position resolver for AST-level queries ([implies] on a [Cfds.Cfd.t]);
     IR-compiled rule sets resolve positions through their {!Ir.space}
     instead and never call it. *)
  pos_of_name : string -> int;
  arity : int;
  rules : rule array;
  (* Semi-naive index: [watchers.(p)] lists the Standard rules whose premise
     reads position [p]; only those can newly fire when a cell at [p]
     changes. *)
  watchers : int list array;
  (* Rules that can fire on a pristine union-find (every cell its own class,
     no constants): Attr_eq, empty-LHS rules, and all-wildcard-LHS rules
     (their (t,t) premise is vacuously true).  Every other rule needs an
     equality or constant some earlier change must have produced, so the
     chase seeds its worklist from the caller's setup instead of a full pass
     over the rule set. *)
  autonomous : int list;
}

let compile_pat = function
  | P.Wild -> Wild
  | P.Const v -> Const v
  | P.Svar -> invalid_arg "Kernel_ref: loose Svar pattern"

let lhs_masks ~maskable lhs =
  if not maskable then (0, 0)
  else
    Array.fold_left
      (fun (pm, sm) (p, pat) ->
        ( pm lor (1 lsl p),
          match pat with Const _ -> sm lor (1 lsl p) | Wild -> sm ))
      (0, 0) lhs

let assemble ~pos_of_name ~arity rules =
  Obs.incr c_compiles;
  let watchers = Array.make arity [] in
  let autonomous = ref [] in
  Array.iteri
    (fun idx -> function
      | Standard { lhs; _ } ->
        Array.iter (fun (p, _) -> watchers.(p) <- idx :: watchers.(p)) lhs;
        if Array.for_all (fun (_, pat) -> pat = Wild) lhs then
          autonomous := idx :: !autonomous
      | Attr_eq _ -> autonomous := idx :: !autonomous)
    rules;
  Array.iteri (fun p l -> watchers.(p) <- List.rev l) watchers;
  { pos_of_name; arity; rules; watchers; autonomous = List.rev !autonomous }

let compile schema sigma =
  let pos a = Schema.attr_index schema a in
  let arity = Schema.arity schema in
  let maskable = arity <= Sys.int_size - 2 in
  let rule c =
    if C.is_attr_eq c then
      match c.C.lhs, c.C.rhs with
      | [ (a, _) ], (b, _) -> Attr_eq (pos a, pos b)
      | _ -> assert false
    else
      let lhs =
        Array.of_list (List.map (fun (a, p) -> (pos a, compile_pat p)) c.C.lhs)
      in
      let pair_mask, self_mask = lhs_masks ~maskable lhs in
      Standard
        {
          lhs;
          rhs_pos = pos (fst c.C.rhs);
          rhs = compile_pat (snd c.C.rhs);
          pair_mask;
          self_mask;
        }
  in
  assemble ~pos_of_name:pos ~arity (Array.of_list (List.map rule sigma))

(* --- the IR front-end --------------------------------------------------- *)

let ipos space id =
  let p = Ir.pos space id in
  if p < 0 then invalid_arg "Kernel_ref: attribute not in the compilation space";
  p

let rule_of_ir space ic =
  if Ir.is_attr_eq ic then
    Attr_eq (ipos space (fst ic.Ir.lhs.(0)), ipos space (fst ic.Ir.rhs))
  else begin
    let maskable = Ir.arity space <= Sys.int_size - 2 in
    let lhs =
      Array.map (fun (a, p) -> (ipos space a, compile_pat p)) ic.Ir.lhs
    in
    let pair_mask, self_mask = lhs_masks ~maskable lhs in
    Standard
      {
        lhs;
        rhs_pos = ipos space (fst ic.Ir.rhs);
        rhs = compile_pat (snd ic.Ir.rhs);
        pair_mask;
        self_mask;
      }
  end

let no_names _ = invalid_arg "Kernel_ref: IR-compiled rule set has no attribute names"

let compile_ir space isigma =
  assemble ~pos_of_name:no_names ~arity:(Ir.arity space)
    (Array.of_list (List.map (rule_of_ir space) isigma))

let num_rules compiled = Array.length compiled.rules

(* Rule masks: a bitset over [rules] enabling leave-one-out pruning without
   recompiling.  MinCover clears one rule per candidate instead of compiling
   Σ∖{φ} from scratch. *)
type mask = Bytes.t

let full_mask compiled = Bytes.make (Array.length compiled.rules) '\001'
let mask_clear m i = Bytes.set m i '\000'
let mask_set m i = Bytes.set m i '\001'
let mask_mem m i = Bytes.get m i <> '\000'

(* Union-find over cells with optional constant binding at roots.  Failure
   (two distinct constants) raises.  [members] lists the cells of each class
   at its root — the semi-naive chase marks exactly the classes whose
   observable state (equalities, constants) may have changed. *)
exception Conflict

type uf = {
  parent : int array;
  const : Value.t option array;
  members : int list array;
}

let uf_create n =
  {
    parent = Array.init n (fun i -> i);
    const = Array.make n None;
    members = Array.init n (fun i -> [ i ]);
  }

let rec find u i =
  let p = u.parent.(i) in
  if p = i then i
  else begin
    let r = find u p in
    u.parent.(i) <- r;
    r
  end

(* Returns true if something changed. *)
let union u i j =
  let ri = find u i and rj = find u j in
  if ri = rj then false
  else begin
    (match u.const.(ri), u.const.(rj) with
     | Some a, Some b when not (Value.equal a b) -> raise Conflict
     | _ -> ());
    let keep, drop = if ri < rj then (ri, rj) else (rj, ri) in
    u.parent.(drop) <- keep;
    (match u.const.(keep), u.const.(drop) with
     | None, Some v -> u.const.(keep) <- Some v
     | _ -> ());
    u.const.(drop) <- None;
    u.members.(keep) <- List.rev_append u.members.(drop) u.members.(keep);
    u.members.(drop) <- [];
    true
  end

let bind u i v =
  let r = find u i in
  match u.const.(r) with
  | Some w -> if Value.equal w v then false else raise Conflict
  | None ->
    u.const.(r) <- Some v;
    true

(* The chase over [rows] row-offsets of one shared cell space. *)
(* Two cells are equal when they share a root or are both bound to the
   same constant. *)
let cells_equal u i j =
  let ri = find u i and rj = find u j in
  ri = rj
  ||
  match u.const.(ri), u.const.(rj) with
  | Some a, Some b -> Value.equal a b
  | _ -> false

(* Semi-naive fixpoint: one full pass over the (unmasked) rules, then a
   worklist of dirty positions re-applies only the rules watching them.
   A position p is dirty when some class containing a cell at p changed
   observably: a union of two const-free classes creates new cross-class
   equalities only (cells at the same position on both sides — marking one
   side's positions covers them; we mark both), while a class gaining a
   constant can also newly satisfy Const premises anywhere in it, so the
   whole merged class is marked.  A union of two classes already bound to
   the same constant changes nothing observable ([cells_equal] and Const
   checks were already true via the constants) and marks nothing. *)
let chase ?mask ?fired compiled u rows =
  let n = compiled.arity in
  let enabled =
    match mask with None -> fun _ -> true | Some m -> fun i -> mask_mem m i
  in
  (* Local tallies, published once at the end (Conflict included). *)
  let rounds = ref 0 and rule_apps = ref 0 in
  let firings = ref 0 and mask_skips = ref 0 in
  let dirty = Array.make n false in
  let queue = Queue.create () in
  (* Bitmask of positions that carry any constraint (equality or constant).
     A rule's premise cannot hold across rows unless all its LHS positions
     are constrained, so [pair_mask]/[self_mask] against this is a one-AND
     pre-filter.  Monotone: bits are only ever added.  When the schema is
     too wide for an int the rule masks are 0 and the filter is a no-op. *)
  let active = ref 0 in
  let maskable = n <= Sys.int_size - 2 in
  let mark_pos p =
    if maskable then active := !active lor (1 lsl p);
    if not dirty.(p) then begin
      dirty.(p) <- true;
      Queue.push p queue
    end
  in
  let mark_class cell =
    List.iter (fun c -> mark_pos (c mod n)) u.members.(find u cell)
  in
  let union_m i j =
    let ri = find u i and rj = find u j in
    if ri = rj then false
    else begin
      let both_const =
        match u.const.(ri), u.const.(rj) with
        | Some _, Some _ -> true
        | _ -> false
      in
      let changed = union u i j in
      if changed then begin
        incr firings;
        if not both_const then mark_class i
      end;
      changed
    end
  in
  let bind_m i v =
    let changed = bind u i v in
    if changed then begin
      incr firings;
      mark_class i
    end;
    changed
  in
  (* Allocation-free premise scan (no closure, no Array.for_all). *)
  let premise_holds row row' lhs =
    let len = Array.length lhs in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < len do
      let p, pat = lhs.(!k) in
      if not (cells_equal u (row + p) (row' + p)) then ok := false
      else begin
        match pat with
        | Wild -> ()
        | Const v ->
          (match u.const.(find u (row + p)) with
           | Some w -> if not (Value.equal v w) then ok := false
           | None -> ok := false)
      end;
      incr k
    done;
    !ok
  in
  let apply_rule rule changed =
    match rule with
    | Attr_eq (a, b) ->
      incr rule_apps;
      List.fold_left (fun ch row -> union_m (row + a) (row + b) || ch) changed rows
    | Standard { lhs; rhs_pos; rhs; pair_mask; self_mask } ->
      let act = !active in
      let can_pair = pair_mask land act = pair_mask in
      let can_self =
        (match rhs with Const _ -> true | Wild -> false)
        && self_mask land act = self_mask
      in
      if not (can_pair || can_self) then begin
        incr mask_skips;
        changed
      end
      else begin
        incr rule_apps;
        let step row row' ch =
          if premise_holds row row' lhs then
            match rhs with
            | Wild -> union_m (row + rhs_pos) (row' + rhs_pos) || ch
            | Const v ->
              let c1 = bind_m (row + rhs_pos) v in
              let c2 = bind_m (row' + rhs_pos) v in
              c1 || c2 || ch
          else ch
        in
        let rec pairs rs changed =
          match rs with
          | [] -> changed
          | r :: rest ->
            let changed = if can_self then step r r changed else changed in
            let changed =
              if can_pair then
                List.fold_left (fun ch r' -> step r r' ch) changed rest
              else changed
            in
            pairs rest changed
        in
        pairs rows changed
      end
  in
  (* Seed the worklist: positions of every cell the caller's setup already
     constrained (shared class or bound constant).  Members of nontrivial
     classes all get scanned, so all their positions are marked. *)
  let tracing = Obs.trace_enabled () in
  if tracing then Obs.trace_begin "fast_impl_ref.chase";
  let publish () =
    if Obs.enabled () then begin
      Obs.incr c_chases;
      Obs.add c_rounds !rounds;
      Obs.add c_rule_apps !rule_apps;
      Obs.add c_firings !firings;
      Obs.add c_mask_skips !mask_skips
    end;
    if tracing then
      Obs.trace_end
        ~args:
          [
            ("rounds", string_of_int !rounds);
            ("rule_applications", string_of_int !rule_apps);
            ("firings", string_of_int !firings);
          ]
        "fast_impl_ref.chase"
  in
  (* Witness collection for provenance: a rule index is marked as soon as
     one of its applications changes the chase state (or conflicts) — the
     marked subset alone replays the same chase, so it implies the same
     conclusion.  The [None] variant is the untouched hot path: no
     per-application exception trap, no marking branch. *)
  let apply =
    match fired with
    | None ->
      fun idx ->
        if enabled idx then ignore (apply_rule compiled.rules.(idx) false)
    | Some b ->
      fun idx ->
        if enabled idx then (
          match apply_rule compiled.rules.(idx) false with
          | changed -> if changed then Bytes.set b idx '\001'
          | exception Conflict ->
            Bytes.set b idx '\001';
            raise Conflict)
  in
  Fun.protect ~finally:publish (fun () ->
      Array.iteri
        (fun c _ ->
          let r = find u c in
          if r <> c || u.const.(r) <> None then mark_pos (c mod n))
        u.parent;
      incr rounds;
      List.iter apply compiled.autonomous;
      while not (Queue.is_empty queue) do
        let p = Queue.pop queue in
        dirty.(p) <- false;
        incr rounds;
        List.iter apply compiled.watchers.(p)
      done)

(* Safe RHS: the term respects the pattern binding in every realisation. *)
let rhs_safe u cell = function
  | Wild -> true
  | Const v ->
    (match u.const.(find u cell) with
     | Some w -> Value.equal v w
     | None -> false)

let implies_attr_eq_pos ?mask ?fired compiled pa pb =
  let u = uf_create compiled.arity in
  try
    chase ?mask ?fired compiled u [ 0 ];
    cells_equal u pa pb
  with Conflict -> true

(* [lhs] already in positional form. *)
let implies_standard_pos ?mask ?fired compiled lhs rhs_pos rhs =
  let n = compiled.arity in
  (* Pair check: two tuples agreeing on (and matching) the LHS. *)
  let pair_ok =
    let u = uf_create (2 * n) in
    try
      Array.iter
        (fun (i, pat) ->
          match pat with
          | Const v ->
            ignore (bind u i v);
            ignore (bind u (n + i) v)
          | Wild -> ignore (union u i (n + i)))
        lhs;
      chase ?mask ?fired compiled u [ 0; n ];
      cells_equal u rhs_pos (n + rhs_pos) && rhs_safe u rhs_pos rhs
    with Conflict -> true
  in
  pair_ok
  &&
  (* Single-tuple check: the (t, t) binding for a constant RHS. *)
  match rhs with
  | Wild -> true
  | Const _ ->
    let u = uf_create n in
    (try
       Array.iter
         (fun (i, pat) ->
           match pat with Const v -> ignore (bind u i v) | Wild -> ())
         lhs;
       chase ?mask ?fired compiled u [ 0 ];
       rhs_safe u rhs_pos rhs
     with Conflict -> true)

let implies ?mask ?fired compiled phi =
  C.is_trivial phi
  ||
  let pos x = compiled.pos_of_name x in
  if C.is_attr_eq phi then
    match phi.C.lhs, phi.C.rhs with
    | [ (a, _) ], (b, _) ->
      implies_attr_eq_pos ?mask ?fired compiled (pos a) (pos b)
    | _ -> assert false
  else
    let lhs =
      Array.of_list
        (List.map (fun (a, p) -> (pos a, compile_pat p)) phi.C.lhs)
    in
    implies_standard_pos ?mask ?fired compiled lhs
      (pos (fst phi.C.rhs))
      (compile_pat (snd phi.C.rhs))

let implies_ir ?mask ?fired space compiled iphi =
  Ir.is_trivial iphi
  ||
  if Ir.is_attr_eq iphi then
    implies_attr_eq_pos ?mask ?fired compiled
      (ipos space (fst iphi.Ir.lhs.(0)))
      (ipos space (fst iphi.Ir.rhs))
  else
    let lhs =
      Array.map (fun (a, p) -> (ipos space a, compile_pat p)) iphi.Ir.lhs
    in
    implies_standard_pos ?mask ?fired compiled lhs
      (ipos space (fst iphi.Ir.rhs))
      (compile_pat (snd iphi.Ir.rhs))
