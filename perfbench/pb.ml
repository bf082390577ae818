(* pb — the benchmark's helper program, driven by run.py (see README.md).

     pb gen-cover   --workload W --out DIR
         write the workload's pool of declaration files, one per instance
     pb trace-cover --workload W
         run the pool through in-process Propcover.cover with Obs on; print
         the Obs snapshot and GC figures as one JSON object
     pb gen-wire    --dir DIR
         write the wire workloads' session document, open request, probe
         population and delta pool; print the session instance's name
     pb loadgen     --workload W --seed N --port P --seconds S --dir DIR
         drive a running `cfdprop serve --tcp` daemon (closed loop), log
         every answer to DIR/ops.tsv and the final state to DIR/final.txt
     pb check       --dir DIR
         check every logged wire answer
     pb replay      --dir DIR
         replay the logged request lines in-process, timing each layer

   Only APIs that ROADMAP item 3 keeps are used: Propcover.cover, Server,
   Session, Protocol, Json, Parser, Obs and Implication.implies (the test
   Propcover.is_propagated_via_cover applies after its cover), plus the
   workload generators. *)

module C = Cfds.Cfd
module P = Propagation
module Parser = Syntax.Parser
module Json = Serve.Json
open Relational

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pb: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let quantile (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let jnum f = Json.Num f
let jint n = Json.Num (float_of_int n)
let print_obj fields = print_endline (Json.to_string (Json.Obj fields))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The protocol's bare CFD body: [V([zip] -> [street])]. *)
let body c =
  let s = Fmt.str "%a" Parser.print_cfd c in
  String.sub s 4 (String.length s - 5)

let parse_cfd text =
  match Parser.parse_document (Printf.sprintf "cfd %s;" text) with
  | Ok { Parser.cfds = [ c ]; _ } -> c
  | Ok _ -> die "expected one CFD in %s" text
  | Error msg -> die "cannot parse %s: %s" text msg

(* ------------------------------------------------------------------ *)
(* Instances *)

type instance = {
  name : string;
  schema : Schema.db;
  sigma : C.t list;
  view : Spc.t;
}

let doc_of inst =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun r -> Buffer.add_string b (Fmt.str "%a\n" Parser.print_schema r))
    (Schema.relations inst.schema);
  List.iter (fun c -> Buffer.add_string b (Fmt.str "%a\n" Parser.print_cfd c)) inst.sigma;
  Buffer.add_string b (Fmt.str "%a\n" Parser.print_view inst.view);
  Buffer.contents b

(* Figure 5 of the paper: |Σ| CFDs over the default random schema, a view
   with |Y|=25, |F|=10, |Ec|=4. *)
let fig5 ~seed ~var =
  let rng = Workload.Rng.make seed in
  let schema = Workload.Schema_gen.default rng in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count:2000 ~max_lhs:9 ~var_pct:var
  in
  let view = Workload.View_gen.generate rng ~schema ~y:25 ~f:10 ~ec:4 in
  { name = Printf.sprintf "fig5-s%d-v%d" seed var; schema; sigma; view }

(* The XL shape of bench/main.ml: |Σ|/400 relations of arity exactly 16,
   400 CFDs dealt to each. *)
let xl ~sigma_n ~seed ~var =
  let rng = Workload.Rng.make seed in
  let relations = max 10 (sigma_n / 400) in
  let schema =
    Workload.Schema_gen.generate rng ~relations ~min_arity:16 ~max_arity:16
  in
  let count_of i =
    (sigma_n / relations) + if i < sigma_n mod relations then 1 else 0
  in
  let sigma =
    List.concat
      (List.mapi
         (fun i rel ->
           Workload.Cfd_gen.generate rng ~schema:(Schema.db [ rel ])
             ~count:(count_of i) ~max_lhs:9 ~var_pct:var)
         (Schema.relations schema))
  in
  let view = Workload.View_gen.generate rng ~schema ~y:25 ~f:10 ~ec:4 in
  { name = Printf.sprintf "xl-n%d-s%d-v%d" sigma_n seed var; schema; sigma; view }

let xl_vetted = [ (4_000, 8_147); (4_000, 8_014); (4_000, 8_196) ]

(* cover-fig5: the paper's headline cell at both var% settings, five
   generator seeds (the bench's 1000 + 7k convention).
   cover-xl: XL instances vetted to finish in seconds; most seeds of this
   shape run for minutes (see README.md). *)
let cover_pool = function
  | "cover-fig5" ->
    List.concat_map
      (fun seed -> [ fig5 ~seed ~var:40; fig5 ~seed ~var:50 ])
      [ 1000; 1007; 1014; 1021; 1028 ]
  | "cover-xl" -> List.map (fun (sigma_n, seed) -> xl ~sigma_n ~seed ~var:50) xl_vetted
  | w -> die "no cover pool for workload %s" w

(* ------------------------------------------------------------------ *)
(* Cover workloads *)

let gen_cover ~workload ~out =
  List.iter
    (fun inst ->
      write_file (Filename.concat out (inst.name ^ ".cfd")) (doc_of inst);
      print_endline inst.name)
    (cover_pool workload)

let frac a b = if b > 0. then a /. b else 0.

let gc_fields ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ( "gc.minor_words_per_op",
      frac (g1.Gc.minor_words -. g0.Gc.minor_words) (float_of_int ops) );
    ( "gc.major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ( "gc.top_heap_mb",
      float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* The pool through in-process covers with Obs on: the raw snapshot (the
   same counters and spans [cfdprop cover --stats-json] writes) plus GC
   figures. *)
let trace_cover ~workload =
  let pool = cover_pool workload in
  Obs.set_enabled true;
  let g0 = Gc.quick_stat () in
  List.iter (fun inst -> ignore (P.Propcover.cover inst.view inst.sigma)) pool;
  let g1 = Gc.quick_stat () in
  let s = Obs.snapshot () in
  Obs.set_enabled false;
  let gc = List.map (fun (k, v) -> (k, jnum v)) (gc_fields ~ops:(List.length pool) g0 g1) in
  Printf.printf "{\"obs\": %s, \"gc\": %s}\n" (Obs.to_json s) (Json.to_string (Json.Obj gc))

(* ------------------------------------------------------------------ *)
(* Wire workloads: one fig5 |Σ|=2000 var 50 session, a Zipf stream over a
   fixed probe population and (wire-churn) a single writer's fixed
   add/remove script.  The inputs below are the same for every seed, so
   runs compare; the seed drives the readers' request streams. *)

let session = "b"

type wire = {
  view : Spc.t;
  sigma : C.t list;  (* the session's initial Σ *)
  probes : string array;  (* Zipf rank order: probes.(0) is the hottest *)
  deltas : string array;  (* the writer's pool of source CFDs *)
  present0 : bool array;  (* pool member already in the initial Σ *)
}

let n_probes = 20_000

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let open_line doc =
  Printf.sprintf "{\"op\": \"open\", \"session\": %S, \"doc\": %s}" session
    (Json.to_string (Json.Str doc))

let gen_wire ~dir =
  let inst = fig5 ~seed:1000 ~var:50 in
  let view = inst.view in
  let vs = Spc.view_schema view in
  let rng = Workload.Rng.make 4242 in
  let cover = (P.Propcover.cover view inst.sigma).P.Propcover.cover in
  let seen = Hashtbl.create (2 * n_probes) in
  let acc = ref [] in
  let add c =
    let b = body c in
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.add seen b ();
      acc := b :: !acc
    end
  in
  (* Half the population is implied: cover members, each widened by one
     wildcard LHS attribute. *)
  List.iter add cover;
  let widenable = Array.of_list (List.filter (fun c -> not (C.is_attr_eq c)) cover) in
  let attrs = Array.of_list (Schema.attribute_names vs) in
  let tries = ref 0 in
  while Hashtbl.length seen < n_probes / 2 && !tries < 20 * n_probes do
    incr tries;
    let c = widenable.(Workload.Rng.int rng (Array.length widenable)) in
    let a = attrs.(Workload.Rng.int rng (Array.length attrs)) in
    if a <> fst c.C.rhs && not (List.mem_assoc a c.C.lhs) then
      add (C.make c.C.rel ((a, Cfds.Pattern.Wild) :: c.C.lhs) c.C.rhs)
  done;
  (* The other half: random view CFDs, mostly not implied. *)
  let tries = ref 0 in
  while Hashtbl.length seen < n_probes && !tries < 20 do
    incr tries;
    List.iter
      (fun c -> if Hashtbl.length seen < n_probes then add c)
      (Workload.Cfd_gen.generate rng ~schema:(Schema.db [ vs ]) ~count:n_probes
         ~max_lhs:4 ~var_pct:50)
  done;
  let probes = Array.of_list (List.rev !acc) in
  shuffle rng probes;
  (* Delta pool: fresh source CFDs, FDs on relations no view atom reads
     (patched tier) and members of Σ (removals). *)
  let atom_bases = List.map (fun (a : Spc.atom) -> a.Spc.base) view.Spc.atoms in
  let off_view =
    List.filter_map
      (fun r ->
        if List.mem (Schema.relation_name r) atom_bases then None
        else
          match Schema.attribute_names r with
          | a :: b :: _ -> Some (C.fd (Schema.relation_name r) [ a ] b)
          | _ -> None)
      (Schema.relations inst.schema)
  in
  let fresh =
    Workload.Cfd_gen.generate rng ~schema:inst.schema ~count:48 ~max_lhs:9 ~var_pct:50
  in
  let members = Array.of_list inst.sigma in
  let from_sigma = List.init 8 (fun _ -> members.(Workload.Rng.int rng (Array.length members))) in
  let canon = Hashtbl.create 4096 in
  List.iter (fun c -> Hashtbl.replace canon (body (C.canonical c)) ()) inst.sigma;
  let dseen = Hashtbl.create 128 in
  let pool =
    List.filter
      (fun c ->
        let k = body (C.canonical c) in
        if Hashtbl.mem dseen k then false
        else (Hashtbl.add dseen k (); true))
      (fresh @ off_view @ from_sigma)
  in
  let doc = doc_of inst in
  print_endline inst.name;
  let file name = Filename.concat dir name in
  write_file (file "doc.cfd") doc;
  write_file (file "open.json") (open_line doc ^ "\n");
  write_file (file "probes.txt") (String.concat "\n" (Array.to_list probes) ^ "\n");
  write_file (file "deltas.txt")
    (String.concat ""
       (List.map
          (fun c ->
            Printf.sprintf "%d\t%s\n"
              (if Hashtbl.mem canon (body (C.canonical c)) then 1 else 0)
              (body c))
          pool))

let load_wire dir =
  let lines name =
    String.split_on_char '\n' (String.trim (read_file (Filename.concat dir name)))
  in
  let doc =
    match Parser.parse_document (read_file (Filename.concat dir "doc.cfd")) with
    | Ok d -> d
    | Error e -> die "bad wire doc: %s" e
  in
  let view = match doc.Parser.views with [ v ] -> v | _ -> die "wire doc wants one view" in
  let deltas =
    List.map
      (fun l ->
        match String.index_opt l '\t' with
        | Some i -> (l.[0] = '1', String.sub l (i + 1) (String.length l - i - 1))
        | None -> die "bad deltas.txt line %s" l)
      (lines "deltas.txt")
  in
  {
    view;
    sigma = List.filter (fun c -> Schema.mem doc.Parser.schema c.C.rel) doc.Parser.cfds;
    probes = Array.of_list (lines "probes.txt");
    deltas = Array.of_list (List.map snd deltas);
    present0 = Array.of_list (List.map fst deltas);
  }

let req_propagates w i =
  Printf.sprintf "{\"op\": \"propagates\", \"session\": %S, \"cfd\": %s}" session
    (Json.to_string (Json.Str w.probes.(i)))

let req_cover = Printf.sprintf "{\"op\": \"cover\", \"session\": %S}" session

let req_delta w ~add i =
  Printf.sprintf "{\"op\": %S, \"session\": %S, \"cfd\": %s}"
    (if add then "add_cfd" else "remove_cfd")
    session
    (Json.to_string (Json.Str w.deltas.(i)))

(* Zipf(1) over the probe ranks. *)
let zipf_cdf n =
  let c = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    c.(k) <- !acc
  done;
  c

let zipf_draw cdf st =
  let n = Array.length cdf in
  let u = Random.State.float st cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* One logged operation, in the order the daemon answered them.  [kind]:
   P propagates, C cover pull, A add_cfd, R remove_cfd. *)
type op_rec = {
  kind : char;
  idx : int;
  first : bool;  (* first request on its connection *)
  lat_us : float;
  ok : bool;
  epoch : int;
  answer : string;  (* P: "1"/"0"; C: response digest; A/R: plan *)
}

let op_to_line r =
  Printf.sprintf "%c\t%d\t%d\t%.1f\t%d\t%d\t%s" r.kind r.idx
    (if r.first then 1 else 0)
    r.lat_us
    (if r.ok then 1 else 0)
    r.epoch r.answer

let op_of_line l =
  match String.split_on_char '\t' l with
  | [ k; i; f; lat; ok; e; a ] ->
    {
      kind = k.[0];
      idx = int_of_string i;
      first = f = "1";
      lat_us = float_of_string lat;
      ok = ok = "1";
      epoch = int_of_string e;
      answer = a;
    }
  | _ -> die "bad op log line: %s" l

let read_ops dir =
  let ic = open_in (Filename.concat dir "ops.tsv") in
  let rec go acc =
    match input_line ic with
    | l -> go (op_of_line l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* The load generator: [nproc]-bounded closed-loop clients multiplexed
   with select in one process.  Each client reconnects every few dozen
   requests, and a request's latency runs from the moment its client was
   ready to send — a connection's first request includes connect() and
   the wait in the accept backlog behind the other client. *)

type role = Mixed | Reader | Writer

type client = {
  role : role;
  st : Random.State.t;
  mutable fd : Unix.file_descr option;
  mutable left : int;
  mutable pending : (char * int * float * bool * bool) option;
      (* kind, idx, t_ready, first, expect noop *)
  buf : Buffer.t;
  present : bool array;  (* writer: the pool's membership in Σ *)
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Blocking request/response on a dedicated connection (final fetches). *)
let rpc fd line =
  write_all fd (line ^ "\n");
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match String.index_opt (Buffer.contents b) '\n' with
    | Some _ -> ()
    | None ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then die "daemon closed the connection";
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ();
  let s = Buffer.contents b in
  String.sub s 0 (String.index s '\n')

(* Requests per connection: a short-lived script's worth. *)
let conn_len = function Writer -> 8 | Mixed | Reader -> 32

let loadgen ~workload ~seed ~port ~seconds ~dir =
  let w = load_wire dir in
  let cdf = zipf_cdf (Array.length w.probes) in
  let nclients = max 1 (min 2 (Stdlib.Domain.recommended_domain_count ())) in
  let roles =
    match workload with
    | "wire-reads" -> List.init nclients (fun _ -> Mixed)
    | "wire-churn" -> if nclients = 1 then [ Writer ] else [ Writer; Reader ]
    | w -> die "no wire workload %s" w
  in
  let clients =
    List.mapi
      (fun i role ->
        {
          role;
          (* The writer's script is the same in every run; readers draw
             their streams from the seed. *)
          st = Random.State.make (if role = Writer then [| 0x5eed |] else [| seed; i |]);
          fd = None;
          left = 0;
          pending = None;
          buf = Buffer.create 8192;
          present = Array.copy w.present0;
        })
      roles
  in
  let log = ref [] and nops = ref 0 and errors = ref 0 in
  let error_samples = ref [] in
  let chunk = Bytes.create 65536 in
  let t0 = Obs.now () in
  let cpu0 = Unix.times () in
  let deadline = t0 +. seconds in
  let send c now =
    let first = c.fd = None in
    if first then begin
      c.fd <- Some (connect port);
      c.left <- conn_len c.role
    end;
    let kind, idx, line, noop =
      match c.role with
      | Writer ->
        let i = Random.State.int c.st (Array.length w.deltas) in
        let present = c.present.(i) in
        (* One step in ten repeats the current state (a noop delta);
           the rest toggle the member. *)
        if Random.State.int c.st 10 = 0 then
          ((if present then 'A' else 'R'), i, req_delta w ~add:present i, true)
        else begin
          c.present.(i) <- not present;
          ((if present then 'R' else 'A'), i, req_delta w ~add:(not present) i, false)
        end
      | Mixed when Random.State.int c.st 10 = 0 -> ('C', 0, req_cover, false)
      | Mixed | Reader ->
        let i = zipf_draw cdf c.st in
        ('P', i, req_propagates w i, false)
    in
    (match c.fd with Some fd -> write_all fd (line ^ "\n") | None -> ());
    c.pending <- Some (kind, idx, now, first, noop)
  in
  let complete c line now =
    match c.pending with
    | None -> ()
    | Some (kind, idx, t_ready, first, noop) ->
      c.pending <- None;
      incr nops;
      let j = Json.parse line in
      let field k = match j with Ok o -> Json.member k o | Error _ -> None in
      let ok = field "ok" = Some (Json.Bool true) in
      let epoch = match field "epoch" with Some (Json.Num e) -> int_of_float e | _ -> -1 in
      let answer, wrong =
        match kind with
        | 'P' -> ((match field "propagates" with Some (Json.Bool true) -> "1" | _ -> "0"), false)
        | 'C' -> (Digest.to_hex (Digest.string line), false)
        | _ ->
          let plan = match field "plan" with Some (Json.Str p) -> p | _ -> "?" in
          (plan, noop <> (plan = "noop"))
      in
      if (not ok) || wrong then begin
        incr errors;
        if List.length !error_samples < 5 then
          error_samples := Json.Str (String.sub line 0 (min 200 (String.length line))) :: !error_samples
      end;
      log :=
        { kind; idx; first; lat_us = (now -. t_ready) *. 1e6; ok = ok && not wrong; epoch; answer }
        :: !log;
      c.left <- c.left - 1;
      if c.left <= 0 then begin
        Option.iter Unix.close c.fd;
        c.fd <- None
      end
  in
  let running = ref true in
  while !running do
    let now = Obs.now () in
    List.iter
      (fun c ->
        if c.pending = None then
          if now < deadline then send c now
          else begin
            (* Done: hang up, so that the serial front end moves on to
               the other client's queued connection. *)
            Option.iter Unix.close c.fd;
            c.fd <- None
          end)
      clients;
    let waiting = List.filter (fun c -> c.pending <> None) clients in
    if waiting = [] then running := false
    else begin
      let fds = List.filter_map (fun c -> c.fd) waiting in
      let ready, _, _ = Unix.select fds [] [] 5.0 in
      if ready = [] then
        die "no response within 5 s (%s)"
          (String.concat "; "
             (List.map
                (fun c ->
                  Printf.sprintf "fd=%b left=%d pending=%s buffered=%d" (c.fd <> None) c.left
                    (match c.pending with Some (k, i, _, f, _) -> Printf.sprintf "%c%d%s" k i (if f then "*" else "") | None -> "-")
                    (Buffer.length c.buf))
                clients));
      let now = Obs.now () in
      List.iter
        (fun c ->
          match c.fd with
          | Some fd when List.mem fd ready ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n = 0 then die "daemon closed a connection mid-request";
            Buffer.add_subbytes c.buf chunk 0 n;
            let s = Buffer.contents c.buf in
            (match String.index_opt s '\n' with
            | Some k ->
              Buffer.clear c.buf;
              Buffer.add_string c.buf (String.sub s (k + 1) (String.length s - k - 1));
              complete c (String.sub s 0 k) now
            | None -> ())
          | _ -> ())
        waiting
    end
  done;
  let wall = Obs.now () -. t0 in
  let cpu1 = Unix.times () in
  let cpu =
    cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime
  in
  List.iter (fun c -> Option.iter Unix.close c.fd) clients;
  let ops = List.rev !log in
  let oc = open_out (Filename.concat dir "ops.tsv") in
  List.iter (fun r -> output_string oc (op_to_line r); output_char oc '\n') ops;
  close_out oc;
  (* The final state, fetched on a fresh connection after the timed loop:
     Σ first, then the cover it must produce, then the daemon's own
     counters. *)
  let fd = connect port in
  let final =
    List.map (rpc fd)
      [
        Printf.sprintf "{\"op\": \"sigma\", \"session\": %S}" session;
        req_cover;
        "{\"op\": \"stats\"}";
        "{\"op\": \"metrics\"}";
      ]
  in
  Unix.close fd;
  write_file (Filename.concat dir "final.txt") (String.concat "\n" final ^ "\n");
  let lat pred =
    sorted_of_list (List.filter_map (fun r -> if pred r then Some (r.lat_us /. 1000.) else None) ops)
  in
  let dist name a =
    ( name,
      Json.Obj
        [
          ("n", jint (Array.length a));
          ("p50_ms", jnum (quantile a 0.5));
          ("p90_ms", jnum (quantile a 0.9));
          ("p99_ms", jnum (quantile a 0.99));
        ] )
  in
  print_obj
    [
      ("ops", jint !nops);
      ("errors", jint !errors);
      ("error_samples", Json.Arr (List.rev !error_samples));
      ("wall_s", jnum wall);
      ("cpu_frac", jnum (cpu /. wall));
      dist "query" (lat (fun r -> r.kind = 'P'));
      dist "read" (lat (fun r -> r.kind = 'P' || r.kind = 'C'));
      dist "cover" (lat (fun r -> r.kind = 'C'));
      dist "delta" (lat (fun r -> r.kind = 'A' || r.kind = 'R'));
      dist "first" (lat (fun r -> r.first));
    ]

(* ------------------------------------------------------------------ *)
(* Answer checks *)

let final_responses dir =
  match String.split_on_char '\n' (String.trim (read_file (Filename.concat dir "final.txt"))) with
  | sigma :: cover :: stats :: metrics :: _ ->
    let p s = match Json.parse s with Ok j -> j | Error e -> die "bad final response: %s" e in
    (p sigma, cover, p cover, p stats, p metrics)
  | _ -> die "final.txt is incomplete"

let strs j k =
  match Json.member k j with
  | Some (Json.Arr l) -> List.map Json.to_str l
  | _ -> die "response lacks %s" k

(* Σ after each applied delta: epoch e is Σ0 with the first e non-noop
   deltas of the (single) writer applied. *)
let sigma_at w ops e =
  let cur = Hashtbl.create 4096 in
  let order = ref [] in
  let add k c = if not (Hashtbl.mem cur k) then (Hashtbl.replace cur k c; order := k :: !order) in
  List.iter (fun c -> add (body (C.canonical c)) c) w.sigma;
  let applied = ref 0 in
  List.iter
    (fun r ->
      if !applied < e && (r.kind = 'A' || r.kind = 'R') && r.answer <> "noop" then begin
        incr applied;
        let c = parse_cfd w.deltas.(r.idx) in
        let k = body (C.canonical c) in
        if r.kind = 'A' then add k c else Hashtbl.remove cur k
      end)
    ops;
  (* A member removed and added again appears twice in [order]. *)
  List.filter_map
    (fun k ->
      let c = Hashtbl.find_opt cur k in
      Hashtbl.remove cur k;
      c)
    (List.rev !order)

(* At most this many epochs get their verdicts checked (each costs one
   from-scratch cover); wire-reads has only epoch 0. *)
let max_checked_epochs = 6

let check ~dir =
  let w = load_wire dir in
  let ops = read_ops dir in
  let view = w.view in
  let vs = Spc.view_schema view in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* Verdicts: one per (epoch, probe), each agreeing with the implication
     test on a from-scratch cover of that epoch's Σ. *)
  let by_epoch = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if r.kind = 'P' && r.ok then begin
        let t =
          match Hashtbl.find_opt by_epoch r.epoch with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 1024 in
            Hashtbl.add by_epoch r.epoch t;
            t
        in
        match Hashtbl.find_opt t r.idx with
        | Some a when a <> r.answer -> fail "probe %d answered both ways at epoch %d" r.idx r.epoch
        | Some _ -> ()
        | None -> Hashtbl.add t r.idx r.answer
      end)
    ops;
  let epochs =
    Hashtbl.fold (fun e t acc -> (Hashtbl.length t, e) :: acc) by_epoch []
    |> List.sort (fun (a, e) (b, f) -> if a <> b then compare b a else compare e f)
  in
  let checked = ref 0 and checked_epochs = ref 0 in
  List.iteri
    (fun i (_, e) ->
      if i < max_checked_epochs then begin
        incr checked_epochs;
        let r = P.Propcover.cover view (sigma_at w ops e) in
        Hashtbl.iter
          (fun idx answer ->
            incr checked;
            let expected =
              r.P.Propcover.always_empty
              || Propagation.Implication.implies vs r.P.Propcover.cover
                   (parse_cfd w.probes.(idx))
            in
            if expected <> (answer = "1") then
              fail "wrong verdict for probe %d at epoch %d: got %s" idx e answer)
          (Hashtbl.find by_epoch e)
      end)
    epochs;
  (* The final cover, fetched after Σ, is byte-identical to a from-scratch
     cover on that Σ with the session's own options. *)
  let jsigma, cover_line, jcover, _, _ = final_responses dir in
  let final_sigma = List.map parse_cfd (strs jsigma "sigma") in
  let final_epoch = match Json.member "epoch" jcover with Some (Json.Num e) -> int_of_float e | _ -> -1 in
  let s =
    match
      Serve.Session.create ~memo:(P.Memo.create ()) ~name:"check" ~view ~sigma:final_sigma ()
    with
    | Ok s -> s
    | Error e -> die "cannot open the check session: %s" e
  in
  let fresh = P.Propcover.cover ~options:(Serve.Session.fresh_options s) view (Serve.Session.sigma s) in
  if List.map body fresh.P.Propcover.cover <> strs jcover "cover" then
    fail "final cover differs from a from-scratch cover of the final sigma";
  (* The logged writer walk reproduces the daemon's final Σ. *)
  let canon l = List.sort compare (List.map (fun c -> body (C.canonical c)) l) in
  if canon (sigma_at w ops max_int) <> canon final_sigma then
    fail "final sigma differs from the logged delta walk";
  (* Cover pulls: one response per epoch, the final one matching the
     final cover. *)
  let pulls = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if r.kind = 'C' && r.ok then
        match Hashtbl.find_opt pulls r.epoch with
        | Some d when d <> r.answer -> fail "two different covers at epoch %d" r.epoch
        | Some _ -> ()
        | None -> Hashtbl.add pulls r.epoch r.answer)
    ops;
  (match Hashtbl.find_opt pulls final_epoch with
  | Some d when d <> Digest.to_hex (Digest.string cover_line) ->
    fail "cover pulls at the final epoch differ from the final cover"
  | _ -> ());
  let failures = List.rev !failures in
  print_obj
    [
      ("verdicts_checked", jint !checked);
      ("epochs_checked", jint !checked_epochs);
      ("failures", jint (List.length failures));
      ("failure_samples", Json.Arr (List.map (fun s -> Json.Str s) (List.filteri (fun i _ -> i < 5) failures)));
    ]

(* ------------------------------------------------------------------ *)
(* Traced replay of the logged request lines through a fresh in-process
   server, layer by layer. *)

let max_replayed = 40_000

let line_of w r =
  match r.kind with
  | 'P' -> req_propagates w r.idx
  | 'C' -> req_cover
  | 'A' -> req_delta w ~add:true r.idx
  | _ -> req_delta w ~add:false r.idx

let fresh_server dir =
  let server = Serve.Server.create () in
  let resp =
    Serve.Server.handle_line server (String.trim (read_file (Filename.concat dir "open.json")))
  in
  (match Json.parse resp with
  | Ok o when Json.member "ok" o = Some (Json.Bool true) -> ()
  | _ -> die "replay open failed: %s" resp);
  server

let replay ~dir =
  let w = load_wire dir in
  let ops = List.filteri (fun i _ -> i < max_replayed) (read_ops dir) in
  let lines = List.map (fun r -> (r, line_of w r)) ops in
  let time f =
    let t0 = Obs.now () in
    let x = f () in
    (x, (Obs.now () -. t0) *. 1e6)
  in
  (* Pass 1: the whole service core, Server.handle_line. *)
  let server = fresh_server dir in
  let hl = Hashtbl.create 4 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  let g0 = Gc.quick_stat () in
  List.iter
    (fun (r, line) ->
      let _, us = time (fun () -> Serve.Server.handle_line server line) in
      push hl (match r.kind with 'P' -> "propagates" | 'C' -> "cover" | _ -> "delta") us)
    lines;
  let g1 = Gc.quick_stat () in
  (* Pass 2: the same lines, one layer at a time, on a second fresh
     server: request parse, CFD parse, the Session call, the render. *)
  let server = fresh_server dir in
  let s =
    match Serve.Server.find_session server session with
    | Some s -> s
    | None -> die "replay session missing"
  in
  let layers = Hashtbl.create 8 in
  let cfd_of = function
    | Serve.Protocol.Propagates { cfd; _ } | Add_cfd { cfd; _ } | Remove_cfd { cfd; _ } -> Some cfd
    | _ -> None
  in
  let plan_name = function
    | Serve.Session.Noop -> "noop"
    | Patched -> "patched"
    | Recomputed -> "recomputed"
  in
  List.iter
    (fun (_, line) ->
      let req, us = time (fun () -> Serve.Protocol.of_line line) in
      push layers "of_line" us;
      match req with
      | Error (e, _) -> die "replay: bad request: %s" e
      | Ok req ->
        let phi =
          Option.map
            (fun text ->
              let c, us =
                time (fun () ->
                    match Parser.parse_document (Printf.sprintf "cfd %s;" text) with
                    | Ok { Parser.cfds = [ c ]; _ } -> c
                    | _ -> die "replay: bad CFD %s" text)
              in
              push layers "parse_cfd" us;
              c)
            (cfd_of req.Serve.Protocol.op)
        in
        let fields =
          match (req.Serve.Protocol.op, phi) with
          | Serve.Protocol.Propagates _, Some c ->
            let r, us = time (fun () -> Serve.Session.propagates s c) in
            push layers "propagates" us;
            (match r with
            | Ok (v, e) -> [ ("propagates", Json.Bool v); ("epoch", jint e) ]
            | Error e -> die "replay: %s" e)
          | (Serve.Protocol.Add_cfd _ | Remove_cfd _), Some c ->
            let add = match req.Serve.Protocol.op with Serve.Protocol.Add_cfd _ -> true | _ -> false in
            let r, us =
              time (fun () -> if add then Serve.Session.add_cfd s c else Serve.Session.remove_cfd s c)
            in
            (match r with
            | Ok d ->
              push layers ("delta." ^ plan_name d.Serve.Session.plan) us;
              [ ("plan", Json.Str (plan_name d.Serve.Session.plan)); ("epoch", jint d.Serve.Session.epoch) ]
            | Error e -> die "replay: %s" e)
          | _ ->
            let r = Serve.Session.cover s in
            [ ("cover", Json.Arr (List.map (fun c -> Json.Str (body c)) r.P.Propcover.cover)) ]
        in
        let _, us = time (fun () -> Serve.Protocol.ok fields) in
        push layers "render" us)
    lines;
  let dist tbl k =
    sorted_of_list (Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let p tbl k q = quantile (dist tbl k) q in
  print_obj
    (List.map
       (fun (k, v) -> (k, jnum v))
       ([
          ("replayed", float_of_int (List.length lines));
          ("serve.handle_line_us.propagates_p50", p hl "propagates" 0.5);
          ("serve.handle_line_us.propagates_p99", p hl "propagates" 0.99);
          ("serve.handle_line_us.cover_p50", p hl "cover" 0.5);
          ("serve.handle_line_us.delta_p50", p hl "delta" 0.5);
          ("protocol.of_line_us_p50", p layers "of_line" 0.5);
          ("syntax.parse_cfd_us_p50", p layers "parse_cfd" 0.5);
          ("serve.render_us_p50", p layers "render" 0.5);
          ("session.propagates_us_p50", p layers "propagates" 0.5);
          ("session.propagates_us_p99", p layers "propagates" 0.99);
          ("session.delta_us.noop_p50", p layers "delta.noop" 0.5);
          ("session.delta_us.patched_p50", p layers "delta.patched" 0.5);
          ("session.delta_us.recomputed_p50", p layers "delta.recomputed" 0.5);
        ]
       @ gc_fields ~ops:(List.length lines) g0 g1))

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %s" a
  in
  match args with
  | _ :: cmd :: rest ->
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> die "missing --%s" k in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> die "--%s wants an integer" k in
    let workload () = get "workload" in
    (match cmd with
    | "gen-cover" -> gen_cover ~workload:(workload ()) ~out:(get "out")
    | "trace-cover" -> trace_cover ~workload:(workload ())
    | "gen-wire" -> gen_wire ~dir:(get "dir")
    | "loadgen" ->
      loadgen ~workload:(workload ()) ~seed:(int "seed") ~port:(int "port")
        ~seconds:(float_of_string (get "seconds")) ~dir:(get "dir")
    | "check" -> check ~dir:(get "dir")
    | "replay" -> replay ~dir:(get "dir")
    | c -> die "unknown command %s" c)
  | _ -> die "usage: pb COMMAND [--key value ...]"
