(* One workload run: set up G0 several times, replay the script with a
   writer on this domain and an open-loop reader on a pool domain, then
   check the results and derive the metrics. Every layer is timed from
   outside, around calls to its public functions. *)

module Fg = Fg_core.Forgiving_graph
module G = Fg_graph
module Store = Fg_graph.Snapshot_store
module Serve = Fg_serve.Serve
module W = Workload

let now () = Int64.to_int (Monotonic_clock.now ())
let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns ns = float_of_int ns /. 1e9

let sleep_until t =
  let d = t - now () in
  if d > 0 then Unix.sleepf (s_of_ns d)

(* ---- setup ---- *)

(* Set-up is repeated and its median reported, so that the metric that
   shows work moved into set-up is itself steady. *)
let setups = 3

type setup = { generate_ns : int; of_graph_ns : int; publish_ns : int }

let setup_once (w : W.t) ~seed =
  let t0 = now () in
  let g0 = G.Generators.barabasi_albert (G.Rng.create (W.graph_seed seed)) w.n w.m in
  let t1 = now () in
  let fg = Fg.of_graph g0 in
  let t2 = now () in
  ignore (Fg.publish fg : Fg.snapshot);
  let t3 = now () in
  (fg, { generate_ns = t1 - t0; of_graph_ns = t2 - t1; publish_ns = t3 - t2 })

let setup w ~seed =
  let rec go k acc =
    let fg, s = setup_once w ~seed in
    if k = 1 then (fg, s :: acc)
    else begin
      ignore (Sys.opaque_identity fg);
      Gc.full_major ();
      go (k - 1) (s :: acc)
    end
  in
  go setups []

(* ---- reader ---- *)

type reader_out = {
  latency : int array;  (** due -> answer *)
  wait : int array;  (** due -> start *)
  gens : int array;  (** answer.gen, -1 if the call raised *)
  staleness : int array;  (** store's current_gen - answer.gen *)
  mutable served : int;
  mutable failed : int;
  mutable violations : int;  (** Degree answers with ok = false *)
  mutable end_ns : int;
}

let serve_span = function
  | Serve.Distance _ -> Spans.Serve_distance
  | Path _ -> Serve_path
  | Degree_check _ -> Serve_degree
  | Stretch_sample _ -> invalid_arg "serve_span: not in the mix"

(* Inline check of one answer: protected endpoints are live and G stays
   connected, so every distance and path exists. *)
let answer_ok q (res : Serve.result) =
  match (q, res.answer) with
  | Serve.Distance _, Dist (Some d) -> d >= 1
  | Path (a, b), Route (Some (first :: _ as p)) -> first = a && List.nth p (List.length p - 1) = b
  | Degree_check _, Degree { degree; _ } -> degree >= 1
  | _ -> false

let reader_loop ~store ~(script : W.script) ~t0 ~deadline ~stop ~spans ~out () =
  let r = Store.reader store in
  let w = Serve.worker () in
  let n = Array.length script.queries in
  let k = ref 0 in
  while !k < n && t0 + script.query_due_ns.(!k) < deadline && not (Atomic.get stop) do
    let i = !k in
    let due = t0 + script.query_due_ns.(i) in
    let t = now () in
    if t < due then Unix.sleepf (s_of_ns (due - t));
    let st = now () in
    let root = match spans with Some b -> Spans.reserve b | None -> -1 in
    (match spans with
    | Some b when t < due -> Spans.add b Reader_idle ~parent:(-1) ~start:(max t t0) ~stop:st
    | _ -> ());
    let q = script.queries.(i) in
    let res = try Some (Serve.serve w r q) with _ -> None in
    let en = now () in
    out.latency.(i) <- en - due;
    out.wait.(i) <- st - due;
    (match res with
    | Some res ->
      out.gens.(i) <- res.gen;
      out.staleness.(i) <- Store.current_gen store - res.gen;
      if not (answer_ok q res) then out.failed <- out.failed + 1;
      (match res.answer with
      | Degree { ok = false; _ } -> out.violations <- out.violations + 1
      | _ -> ())
    | None ->
      out.gens.(i) <- -1;
      out.failed <- out.failed + 1);
    out.served <- i + 1;
    (match spans with
    | Some b ->
      Spans.add b (serve_span q) ~parent:root ~start:st ~stop:en;
      Spans.set b root Query ~parent:(-1) ~start:st ~stop:(now ())
    | None -> ());
    incr k
  done;
  out.end_ns <- now ()

(* ---- writer ---- *)

type writer_out = {
  visible : int array;  (** per applied event: call start -> publish return *)
  alive : bool array;  (** the benchmark's own liveness view *)
  mutable applied : int;
  mutable w_failed : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable batches : int;
  mutable batch_victims : int;
  mutable publishes : int;
  mutable w_end_ns : int;
  mutable first_error : string option;
}

let writer_loop (w : W.t) fg ~(script : W.script) ~t0 ~deadline ~spans ~out =
  let span nm ~parent ~start ~stop =
    match spans with Some b -> Spans.add b nm ~parent ~start ~stop | None -> ()
  in
  let max_step =
    Array.fold_left
      (fun acc (s : W.step) -> max acc (Array.length s.inserts + Array.length s.victims))
      0 script.steps
  in
  let ev_start = Array.make (max 1 max_step) 0 in
  (* [weight] events are lost if [f] raises *)
  let attempt weight f =
    try
      f ();
      true
    with e ->
      out.w_failed <- out.w_failed + weight;
      if out.first_error = None then out.first_error <- Some (Printexc.to_string e);
      false
  in
  let k_links = match w.writer with Rounds { links; _ } -> links | _ -> 0 in
  let nsteps = Array.length script.steps in
  let step = ref 0 in
  let last = ref (now ()) in
  while !step < nsteps && !last < deadline do
    let s = script.steps.(!step) in
    let t = now () in
    let idle = t < t0 + s.due_ns in
    if idle then Unix.sleepf (s_of_ns (t0 + s.due_ns - t));
    let st = now () in
    if idle then span Writer_idle ~parent:(-1) ~start:t ~stop:st;
    let root = match spans with Some b -> Spans.reserve b | None -> -1 in
    let k = ref 0 in
    let applied_at a =
      ev_start.(!k) <- a;
      incr k
    in
    Array.iteri
      (fun i v ->
        let links = Array.to_list (Array.sub s.links (i * k_links) k_links) in
        let a = now () in
        let ok = attempt 1 (fun () -> Fg.insert fg v links) in
        span Insert ~parent:root ~start:a ~stop:(now ());
        out.inserts <- out.inserts + 1;
        if ok then begin
          out.alive.(v) <- true;
          applied_at a
        end)
      s.inserts;
    if s.batch then begin
      let a = now () in
      let nv = Array.length s.victims in
      let ok = attempt nv (fun () -> Fg.delete_batch fg (Array.to_list s.victims)) in
      span Delete_batch ~parent:root ~start:a ~stop:(now ());
      out.batches <- out.batches + 1;
      out.batch_victims <- out.batch_victims + nv;
      if ok then
        Array.iter
          (fun v ->
            out.alive.(v) <- false;
            applied_at a)
          s.victims
    end
    else begin
      (* a long step stops at the deadline, so the run ends on time *)
      let i = ref 0 and clock = ref st in
      while !i < Array.length s.victims && !clock < deadline do
        let v = s.victims.(!i) in
        let a = !clock in
        let ok = attempt 1 (fun () -> Fg.delete fg v) in
        clock := now ();
        span Delete ~parent:root ~start:a ~stop:!clock;
        out.deletes <- out.deletes + 1;
        if ok then begin
          out.alive.(v) <- false;
          applied_at a
        end;
        incr i
      done
    end;
    let a = now () in
    ignore (attempt 0 (fun () -> ignore (Fg.publish fg : Fg.snapshot)) : bool);
    let b = now () in
    span Publish ~parent:root ~start:a ~stop:b;
    out.publishes <- out.publishes + 1;
    for j = 0 to !k - 1 do
      out.visible.(out.applied + j) <- b - ev_start.(j)
    done;
    out.applied <- out.applied + !k;
    last := now ();
    (match spans with
    | Some sb -> Spans.set sb root Step ~parent:(-1) ~start:st ~stop:!last
    | None -> ());
    incr step
  done;
  out.w_end_ns <- !last

(* ---- checks (after the timed phase, not timed) ---- *)

let degree_ratio_max fg alive =
  let g = Fg.graph fg and gp = Fg.gprime fg in
  let worst = ref 0. in
  Array.iteri
    (fun v live ->
      let d' = G.Adjacency.degree gp v in
      if live && d' > 0 then
        worst := Float.max !worst (float_of_int (G.Adjacency.degree g v) /. float_of_int d'))
    alive;
  !worst

(* Final-snapshot queries against the hashtable BFS oracle on the live
   graph; returns the number of wrong answers. Each oracle BFS answers
   [per_source] queries. *)
let oracle_check fg ~rng ~live ~sources ~per_source ~path =
  let snap = Option.get (Store.peek (Fg.snapshot_store fg)) in
  let w = Serve.worker () in
  let g = Fg.graph fg in
  let rec hops = function
    | x :: (y :: _ as rest) -> G.Adjacency.mem_edge g x y && hops rest
    | _ -> true
  in
  let bad = ref 0 in
  for _ = 1 to sources do
    let a = G.Rng.pick_array rng live in
    let dist = G.Bfs.distances g a in
    for _ = 1 to per_source do
      let b = G.Rng.pick_array rng live in
      let expect = G.Node_id.Tbl.find_opt dist b in
      let q = if path then Serve.Path (a, b) else Serve.Distance (a, b) in
      let ok =
        match ((Serve.answer w snap q).answer, expect) with
        | Dist d, _ -> d = expect
        | Route (Some p), Some d ->
          List.length p = d + 1 && List.hd p = a && List.nth p d = b && hops p
        | Route None, None -> true
        | _ -> false
      in
      if not ok then incr bad
    done
  done;
  !bad

type audit = { failures : string list; stretch : float; ratio : float }

let checks fg ~seed ~(wout : writer_out) ~(rout : reader_out) =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let snap = Fg.publish fg in
  let store = Fg.snapshot_store fg in
  if Store.current_gen store <> Fg.generation fg then
    fail "store at gen %d, engine at %d" (Store.current_gen store) (Fg.generation fg);
  if not (G.Csr.equal snap.csr (G.Csr.of_adjacency (Fg.graph fg))) then
    fail "published G differs from Csr.of_adjacency graph";
  if not (G.Csr.equal snap.gprime_csr (G.Csr.of_adjacency (Fg.gprime fg))) then
    fail "published G' differs from Csr.of_adjacency gprime";
  (match Fg_core.Invariants.check fg with
  | [] -> ()
  | v :: _ as vs -> fail "%d invariant violations, first: %s" (List.length vs) v);
  let live = ref [] in
  Array.iteri (fun v a -> if a then live := v :: !live) wout.alive;
  let live_arr = Array.of_list !live in
  if Array.length live_arr <> Fg.num_live fg then
    fail "benchmark tracks %d live nodes, engine %d" (Array.length live_arr) (Fg.num_live fg);
  let stretch =
    (Fg_metrics.Stretch.sampled (G.Rng.create seed) ~k:16 ~graph_csr:snap.csr
       ~reference_csr:snap.gprime_csr ~graph:(Fg.graph fg) ~reference:(Fg.gprime fg) !live)
      .max_stretch
  in
  if stretch > float_of_int (Fg.stretch_bound fg) then
    fail "sampled stretch %.3f > bound %d" stretch (Fg.stretch_bound fg);
  let ratio = degree_ratio_max fg wout.alive in
  if ratio > 4. then fail "degree ratio %.3f > 4" ratio;
  for i = 1 to rout.served - 1 do
    if rout.gens.(i) >= 0 && rout.gens.(i) < rout.gens.(i - 1) then
      fail "reader generation went back from %d to %d at query %d" rout.gens.(i - 1)
        rout.gens.(i) i
  done;
  let rng = G.Rng.create (seed + 1) in
  let bad = oracle_check fg ~rng ~live:live_arr ~sources:2 ~per_source:128 ~path:false in
  if bad > 0 then fail "%d of 256 final Distance answers disagree with BFS" bad;
  let bad = oracle_check fg ~rng ~live:live_arr ~sources:1 ~per_source:64 ~path:true in
  if bad > 0 then fail "%d of 64 final Path answers disagree with BFS" bad;
  { failures = List.rev !fails; stretch; ratio }

(* ---- the run ---- *)

type metric = { name : string; unit : string; value : float }

type result = {
  digest : string;
  attempted : int;
  failed : int;
  failures : string list;  (** failed checks; [] = correct *)
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  spans : Spans.buf list;
  origin : int;  (** clock value at the start of the timed phase *)
}

let median_ns xs = Stats.quantile (Array.of_list xs) 0.5
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3
let frac a b = if b <= 0 then 0. else float_of_int a /. float_of_int b
let m name unit value = { name; unit; value }

(* The layer ledger of a traced run: self times from the spans, and the
   counters the benchmark keeps itself. *)
let per_layer ~setups ~wl ~rl ~wall ~rwall ~(wout : writer_out) ~(rout : reader_out)
    ~(store : Store.stats) ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~(audit : audit) =
  let setup_median f = s_of_ns (median_ns (List.map f setups)) in
  let wfrac nm = frac (Spans.self_ns wl nm) wall in
  let count name n = m name "count" (float_of_int n) in
  let pub = Stats.sorted (Spans.durations wl Publish) in
  let events = float_of_int (max 1 wout.applied) in
  let served a = Array.sub a 0 rout.served in
  let serve_class nm cls =
    let d = Stats.sorted (Spans.durations rl nm) in
    [
      count ("serve." ^ cls ^ ".count") (Array.length d);
      m ("serve." ^ cls ^ ".p50_us") "us" (us (Stats.rank d 0.5));
      m ("serve." ^ cls ^ ".p99_us") "us" (us (Stats.rank d 0.99));
    ]
  in
  let late =
    Array.fold_left (fun acc l -> if l > 20_000_000 then acc + 1 else acc) 0 (served rout.latency)
  in
  let reader_busy =
    List.fold_left
      (fun acc nm -> acc + Spans.self_ns rl nm)
      0 Spans.[ Query; Serve_distance; Serve_path; Serve_degree ]
  in
  [
    m "generators.barabasi_albert_s" "s" (setup_median (fun s -> s.generate_ns));
    m "forgiving_graph.of_graph_s" "s" (setup_median (fun s -> s.of_graph_ns));
    m "forgiving_graph.publish.first_s" "s" (setup_median (fun s -> s.publish_ns));
    count "forgiving_graph.insert.count" wout.inserts;
    m "forgiving_graph.insert.self_frac" "frac" (wfrac Insert);
    count "forgiving_graph.delete.count" wout.deletes;
    m "forgiving_graph.delete.self_frac" "frac" (wfrac Delete);
    count "forgiving_graph.delete_batch.count" wout.batches;
    count "forgiving_graph.delete_batch.victims" wout.batch_victims;
    m "forgiving_graph.delete_batch.self_frac" "frac" (wfrac Delete_batch);
    m "forgiving_graph.heal.us_per_victim" "us"
      (us (Spans.self_ns wl Delete + Spans.self_ns wl Delete_batch)
      /. float_of_int (max 1 (wout.deletes + wout.batch_victims)));
    count "forgiving_graph.publish.count" wout.publishes;
    m "forgiving_graph.publish.busy_s" "s" (s_of_ns (Spans.self_ns wl Publish));
    m "forgiving_graph.publish.p50_ms" "ms" (ms (Stats.rank pub 0.5));
    m "forgiving_graph.publish.p99_ms" "ms" (ms (Stats.rank pub 0.99));
    m "forgiving_graph.publish.self_frac" "frac" (wfrac Publish);
    m "forgiving_graph.publish.events_per_publish" "count" (frac wout.applied wout.publishes);
    m "writer.idle_frac" "frac" (wfrac Writer_idle);
    m "writer.bench_frac" "frac" (wfrac Step);
    count "snapshot_store.published" store.published;
    count "snapshot_store.max_lag" store.max_lag;
    count "snapshot_store.reclaimed" store.reclaimed;
  ]
  @ serve_class Serve_distance "distance"
  @ serve_class Serve_path "path"
  @ serve_class Serve_degree "degree"
  @ [
      m "serve.reader.busy_frac" "frac" (frac reader_busy rwall);
      m "serve.reader.wait_p99_us" "us" (us (Stats.quantile (served rout.wait) 0.99));
      m "serve.late_frac" "frac" (frac (late + rout.failed) (max 1 rout.served));
      count "serve.staleness.p99_gens" (Stats.quantile (served rout.staleness) 0.99);
      count "serve.degree.violations" rout.violations;
      m "gc.minor_words_per_event" "words" ((gc1.minor_words -. gc0.minor_words) /. events);
      m "gc.promoted_words_per_event" "words" ((gc1.promoted_words -. gc0.promoted_words) /. events);
      count "gc.minor_collections" (gc1.minor_collections - gc0.minor_collections);
      count "gc.major_collections" (gc1.major_collections - gc0.major_collections);
      m "gc.top_heap_mb" "MB" (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      m "ledger.covered_frac.writer" "frac" (frac wl.covered_ns wall);
      m "ledger.covered_frac.reader" "frac" (frac rl.covered_ns rwall);
      m "quality.stretch_max_sampled" "ratio" audit.stretch;
      m "quality.degree_ratio_max" "ratio" audit.ratio;
    ]

let run (w : W.t) ~seed ~seconds ~traced =
  let t_setup = now () in
  let fg, setups = setup w ~seed in
  let script = W.script w ~seed ~seconds (Fg.gprime fg) in
  let nq = Array.length script.queries in
  let wspans, rspans =
    if not traced then (None, None)
    else begin
      let cap =
        Array.fold_left
          (fun acc (s : W.step) ->
            acc + 3 + Array.length s.inserts + if s.batch then 1 else Array.length s.victims)
          0 script.steps
      in
      (Some (Spans.create ~domain:0 cap), Some (Spans.create ~domain:1 (3 * nq)))
    end
  in
  let wout =
    {
      visible = Array.make (max 1 script.events) 0;
      alive = Array.init (w.n + w.max_events) (fun v -> v < w.n);
      applied = 0;
      w_failed = 0;
      inserts = 0;
      deletes = 0;
      batches = 0;
      batch_victims = 0;
      publishes = 0;
      w_end_ns = 0;
      first_error = None;
    }
  in
  let rout =
    {
      latency = Array.make nq 0;
      wait = Array.make nq 0;
      gens = Array.make nq 0;
      staleness = Array.make nq 0;
      served = 0;
      failed = 0;
      violations = 0;
      end_ns = 0;
    }
  in
  G.Parallel.warm ();
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let store = Fg.snapshot_store fg in
  (* both domains start on the same tick, a little after the reader task
     has been handed to the pool *)
  let t0 = now () + 20_000_000 in
  let deadline = t0 + ns_of_s seconds in
  let stop = Atomic.make false in
  let task =
    G.Parallel.submit (reader_loop ~store ~script ~t0 ~deadline ~stop ~spans:rspans ~out:rout)
  in
  sleep_until t0;
  (try writer_loop w fg ~script ~t0 ~deadline ~spans:wspans ~out:wout
   with e ->
     Atomic.set stop true;
     G.Parallel.await task;
     raise e);
  G.Parallel.await task;
  let gc1 = Gc.quick_stat () in
  let peak_rss = Host.peak_rss_mb () in
  let t_checks = now () in
  let audit = checks fg ~seed ~wout ~rout in
  Printf.printf "# %s: set-up %.1fs (x%d), timed %.1fs, checks %.1fs\n%!" w.name
    (s_of_ns (t0 - t_setup)) (List.length setups) (s_of_ns (wout.w_end_ns - t0))
    (s_of_ns (now () - t_checks));
  let wall = wout.w_end_ns - t0 in
  let visible = Stats.sorted (Array.sub wout.visible 0 wout.applied) in
  let latency = Stats.sorted (Array.sub rout.latency 0 rout.served) in
  let end_to_end =
    [
      m "setup_s" "s"
        (s_of_ns (median_ns (List.map (fun s -> s.generate_ns + s.of_graph_ns + s.publish_ns) setups)));
      m "events_per_s" "1/s" (float_of_int wout.applied /. s_of_ns wall);
      m "visible_p50_ms" "ms" (ms (Stats.rank visible 0.5));
      m "visible_p90_ms" "ms" (ms (Stats.rank visible 0.9));
      m "query_p50_us" "us" (us (Stats.rank latency 0.5));
      m "query_p90_us" "us" (us (Stats.rank latency 0.9));
      m "peak_rss_mb" "MB" peak_rss;
    ]
  in
  let per_layer =
    match (wspans, rspans) with
    | Some wb, Some rb ->
      per_layer ~setups ~wl:(Spans.ledger wb) ~rl:(Spans.ledger rb) ~wall
        ~rwall:(rout.end_ns - t0) ~wout ~rout ~store:(Store.stats store) ~gc0 ~gc1 ~audit
    | _ -> []
  in
  let ledger_failures =
    List.filter_map
      (fun mt ->
        if String.starts_with ~prefix:"ledger.covered_frac" mt.name && mt.value < 0.95 then
          Some (Printf.sprintf "%s = %.4f < 0.95" mt.name mt.value)
        else None)
      per_layer
  in
  let writer_failure =
    Option.to_list (Option.map (fun e -> "writer raised: " ^ e) wout.first_error)
  in
  {
    digest = script.digest;
    attempted = wout.inserts + wout.deletes + wout.batch_victims + rout.served;
    failed = wout.w_failed + rout.failed;
    failures = writer_failure @ ledger_failures @ audit.failures;
    end_to_end;
    per_layer;
    spans = List.filter_map Fun.id [ wspans; rspans ];
    origin = t0;
  }
