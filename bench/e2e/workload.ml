(* The three workloads and the seeded scripts they replay.

   Every workload runs the same pipeline — G0 = BA(n, m), an adversarial
   writer script applied through the engine's public API with a publish
   after each step, and one open-loop reader domain serving queries from
   the published snapshots — and differs in which layer dominates:

   - churn-256k: the paper's mixed insert/delete model with simultaneous
     failures, at a size well past the caches. Rounds of 256 events (20%
     insert, 80% delete) end in one delete_batch and one publish on the
     apply-delta path; publish is ~90% of writer time and heal work is
     small, so a heal speed-up should not move it and a publish speed-up
     should.
   - hub-attack-128k: the star-centre worst case of Theorem 2 (and of the
     Forgiving Tree): victims in descending G0-degree order, one delete
     each, one publish per 4096 deletes. Large-d victims make delete most
     of the work, and every publish overflows the engine's churn ledger,
     so this is the workload on the rebuild side of the publish path.
   - serve-64k: repair while serving. A paced writer (50 deletes/s, a
     publish after every delete, so the apply-delta side; the pace leaves
     the writer slack, so it keeps up on a slowed host) and a reader at
     100 queries/s whose BFS kernels are most of the work; stop-the-world
     GC couples the two domains.

   Reader rates keep each reader about a third busy, so its latencies
   show service time and interference rather than queueing, which would
   amplify every slowdown.

   A script is a pure function of (workload, seed, seconds): victims,
   insert ids and links, query endpoints and due times are all drawn
   before timing starts, so equal seeds give equal inputs, which the
   script digest shows. Query endpoints come from a protected node set
   the writer never deletes, so every query has a defined answer. *)

module Rng = Fg_graph.Rng
module Adjacency = Fg_graph.Adjacency

type writer =
  | Rounds of { size : int; insert_pct : int; links : int }
      (** churn: inserts one by one, then the round's victims as one
          delete_batch, then publish *)
  | Hubs of { publish_every : int }
      (** descending G0 degree, one delete per victim *)
  | Paced of { rate : float }  (** one delete + publish, due every 1/rate s *)

type t = {
  name : string;
  n : int;
  m : int;
  writer : writer;
  max_events : int;  (** script length cap; the clock normally ends the run first *)
  qps : float;  (** reader open-loop rate *)
  protected : int;  (** nodes the writer never deletes: the query endpoints *)
}

(* Query mix, as weights: distance=7, path=2, degree=1. Stretch_sample is
   left out — at ~70 ms a query it would set the tail by itself — and
   stretch is audited after the run instead. *)
let mix = [| (`Distance, 7); (`Path, 2); (`Degree, 1) |]

let churn =
  {
    name = "churn-256k";
    n = 262_144;
    m = 2;
    writer = Rounds { size = 256; insert_pct = 20; links = 2 };
    max_events = 196_608;
    qps = 10.;
    protected = 1024;
  }

let hub =
  {
    name = "hub-attack-128k";
    n = 131_072;
    m = 3;
    writer = Hubs { publish_every = 4096 };
    max_events = 65_536;
    qps = 25.;
    protected = 1024;
  }

let serve =
  {
    name = "serve-64k";
    n = 65_536;
    m = 3;
    writer = Paced { rate = 50. };
    max_events = 65_536;
    qps = 100.;
    protected = 1024;
  }

let all = [ churn; hub; serve ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The harness self-test size: same shapes at n = 2048, a few hundred
   events, so every code path and check runs in about a second. *)
let smoke w =
  let writer =
    match w.writer with
    | Rounds r -> Rounds { r with size = 64 }
    | Hubs _ -> Hubs { publish_every = 128 }
    | Paced _ as p -> p
  in
  { w with n = 2048; writer; max_events = 512; protected = 64 }

(* ---- scripts ---- *)

type step = {
  inserts : int array;  (** fresh ids, applied in order *)
  links : int array;  (** [links.(i * k + j)]: j-th neighbour of insert i *)
  victims : int array;
  batch : bool;  (** victims as one delete_batch, else one delete each *)
  due_ns : int;  (** offset from phase start; 0 for an unpaced writer *)
}

type script = {
  steps : step array;
  events : int;  (** inserts + victims over all steps *)
  queries : Fg_serve.Serve.query array;
  query_due_ns : int array;
  digest : string;
}

(* Live set with O(1) uniform draws and removals (swap-remove). *)
module Pool = struct
  type t = { ids : int array; pos : int array; mutable size : int }

  let create cap = { ids = Array.make cap 0; pos = Array.make cap (-1); size = 0 }

  let add p v =
    p.ids.(p.size) <- v;
    p.pos.(v) <- p.size;
    p.size <- p.size + 1

  let remove p v =
    let i = p.pos.(v) in
    let last = p.ids.(p.size - 1) in
    p.ids.(i) <- last;
    p.pos.(last) <- i;
    p.pos.(v) <- -1;
    p.size <- p.size - 1

  let pick p rng = p.ids.(Rng.int rng p.size)
end

let ns_of_s s = int_of_float (s *. 1e9)

(* Hub order: descending G0 degree, ties by ascending id. *)
let hub_order g0 n =
  let ids = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare (Adjacency.degree g0 b) (Adjacency.degree g0 a)) ids;
  ids

let digest_of ~w ~graph_seed steps queries due =
  let b = Buffer.create 4096 in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ' ' in
  Buffer.add_string b w.name;
  List.iter int [ w.n; w.m; graph_seed ];
  Array.iter
    (fun s ->
      Buffer.add_char b '|';
      Array.iter int s.inserts;
      Array.iter int s.links;
      Array.iter int s.victims;
      int s.due_ns)
    steps;
  Array.iteri
    (fun i q ->
      int due.(i);
      match q with
      | Fg_serve.Serve.Distance (a, c) -> Buffer.add_char b 'd'; int a; int c
      | Path (a, c) -> Buffer.add_char b 'p'; int a; int c
      | Degree_check v -> Buffer.add_char b 'g'; int v
      | Stretch_sample _ -> assert false)
    queries;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The seed fixes G0's generator seed first, then everything else. *)
let seeds seed =
  let rng = Rng.create seed in
  let graph_seed = Rng.int rng 0x3FFFFFFF in
  (graph_seed, rng)

let graph_seed seed = fst (seeds seed)

let pick_class rng =
  let total = Array.fold_left (fun acc (_, wt) -> acc + wt) 0 mix in
  let rec go r i =
    let c, wt = mix.(i) in
    if r < wt then c else go (r - wt) (i + 1)
  in
  go (Rng.int rng total) 0

(* [script w ~seed ~seconds g0] draws the whole run. [g0] is G0 as
   generated from [graph_seed seed] (its degrees order the hub attack). *)
let script w ~seed ~seconds g0 =
  let graph_seed, rng = seeds seed in
  let cap = w.n + w.max_events in
  let live = Pool.create cap in
  for v = 0 to w.n - 1 do
    Pool.add live v
  done;
  let hubs = match w.writer with Hubs _ -> hub_order g0 w.n | _ -> [||] in
  let n_hubs = min w.max_events (w.n / 4) in
  (* protected endpoints: uniform over the nodes the writer will never
     choose (for the hub attack, everything below the hub cut) *)
  let is_protected = Array.make cap false in
  let candidates =
    match w.writer with
    | Hubs _ -> Array.sub hubs n_hubs (w.n - n_hubs)
    | _ -> Array.init w.n Fun.id
  in
  let protected_ids = Rng.sample rng w.protected candidates in
  Array.sort compare protected_ids;
  Array.iter (fun v -> is_protected.(v) <- true) protected_ids;
  let rec victim () =
    let v = Pool.pick live rng in
    if is_protected.(v) then victim () else v
  in
  let take () =
    let v = victim () in
    Pool.remove live v;
    v
  in
  let steps =
    match w.writer with
    | Rounds { size; insert_pct; links } ->
      let next_id = ref w.n in
      Array.init (w.max_events / size) (fun _ ->
          let ins = ref [] and lnk = ref [] and vic = ref [] in
          for _ = 1 to size do
            if Rng.int rng 100 < insert_pct then begin
              let v = !next_id in
              incr next_id;
              let rec distinct acc k =
                if k = 0 then acc
                else
                  let u = Pool.pick live rng in
                  if List.mem u acc then distinct acc k else distinct (u :: acc) (k - 1)
              in
              lnk := List.rev_append (distinct [] links) !lnk;
              ins := v :: !ins;
              Pool.add live v
            end
            else vic := take () :: !vic
          done;
          {
            inserts = Array.of_list (List.rev !ins);
            links = Array.of_list (List.rev !lnk);
            victims = Array.of_list (List.rev !vic);
            batch = true;
            due_ns = 0;
          })
    | Hubs { publish_every } ->
      let k = (n_hubs + publish_every - 1) / publish_every in
      Array.init k (fun i ->
          let lo = i * publish_every in
          {
            inserts = [||];
            links = [||];
            victims = Array.sub hubs lo (min publish_every (n_hubs - lo));
            batch = false;
            due_ns = 0;
          })
    | Paced { rate } ->
      let k = min w.max_events (int_of_float (Float.ceil (rate *. seconds))) in
      Array.init k (fun i ->
          {
            inserts = [||];
            links = [||];
            victims = [| take () |];
            batch = false;
            due_ns = ns_of_s (float_of_int i /. rate);
          })
  in
  let events =
    Array.fold_left (fun acc s -> acc + Array.length s.inserts + Array.length s.victims) 0 steps
  in
  (* One arrival per 1/qps slot, at a uniform offset within it. Evenly
     spaced arrivals would lock in phase with the paced writer (whether
     queries overlap publishes would then be fixed by each run's start
     offset); Poisson ones would add queueing noise to every percentile. *)
  let nq = int_of_float (w.qps *. seconds) in
  let query_due_ns =
    Array.init nq (fun i -> ns_of_s ((float_of_int i +. Rng.float rng 1.) /. w.qps))
  in
  let endpoint () = Rng.pick_array rng protected_ids in
  let rec pair () =
    let a = endpoint () and b = endpoint () in
    if a = b then pair () else (a, b)
  in
  let queries =
    Array.init nq (fun _ ->
        match pick_class rng with
        | `Distance ->
          let a, b = pair () in
          Fg_serve.Serve.Distance (a, b)
        | `Path ->
          let a, b = pair () in
          Fg_serve.Serve.Path (a, b)
        | `Degree -> Fg_serve.Serve.Degree_check (endpoint ()))
  in
  {
    steps;
    events;
    queries;
    query_due_ns;
    digest = digest_of ~w ~graph_seed steps queries query_due_ns;
  }
