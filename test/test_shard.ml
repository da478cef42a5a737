(* Sharded heal engine: ownership map, argument validation, and the
   core acceptance property — a K-shard run is byte-identical to the flat
   engine (same graphs, same G' image, same delta stream, same RT root
   ids) on random attack scripts, including forced cross-shard repair
   groups and the coordinator-side staging loop a live sink forces. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt
module Map = Fg_shard.Shard_map
module Engine = Fg_shard.Shard_engine
module Check = Fg_shard.Shard_check

(* ---- Shard_map ---- *)

let test_map_formula () =
  let t = Map.create ~block:8 ~shards:3 ~capacity:100 () in
  for id = 0 to 400 do
    Alcotest.(check int)
      (Printf.sprintf "owner %d" id)
      (id / 8 mod 3) (Map.owner t id)
  done;
  Alcotest.(check bool) "grew past capacity" true (Map.length t > 100)

let test_map_rejects () =
  (match Map.create ~shards:0 ~capacity:1 () with
  | _ -> Alcotest.fail "shards=0 must be rejected"
  | exception Invalid_argument _ -> ());
  let t = Map.create ~shards:2 ~capacity:4 () in
  match Map.owner t (-1) with
  | _ -> Alcotest.fail "negative id must be rejected"
  | exception Invalid_argument _ -> ()

(* canonical runs under churn: grow the frontier in random hops; the run
   encoding must stay canonical (maximal runs, full cover, formula
   agreement at every boundary) after every growth step *)
let prop_map_canonical_runs =
  QCheck2.Test.make ~name:"Shard_map runs stay canonical under churn" ~count:100
    QCheck2.Gen.(
      tup4 (int_range 1 5) (int_range 1 9) (int_range 1 32)
        (list_size (int_range 1 12) (int_range 0 500)))
    (fun (shards, block, capacity, hops) ->
      let t = Map.create ~block ~shards ~capacity () in
      List.iter
        (fun id ->
          let o = Map.owner t id in
          if o <> id / block mod shards then
            Alcotest.failf "owner %d: %d" id o;
          (* runs: contiguous cover, no adjacent duplicates, formula *)
          let prev_hi = ref 0 and prev_v = ref (-1) and runs = ref 0 in
          Map.iter_runs
            (fun ~lo ~hi v ->
              incr runs;
              if lo <> !prev_hi then Alcotest.failf "gap at %d" lo;
              if hi <= lo then Alcotest.failf "empty run at %d" lo;
              if v = !prev_v then Alcotest.failf "unmerged runs at %d" lo;
              if v <> lo / block mod shards then
                Alcotest.failf "run value at %d" lo;
              if v <> (hi - 1) / block mod shards then
                Alcotest.failf "run value at %d" (hi - 1);
              prev_hi := hi;
              prev_v := v)
            t;
          if !prev_hi <> Map.length t then Alcotest.fail "cover short";
          if !runs <> Map.run_count t then Alcotest.fail "run_count";
          (* single shard must compress to a single run *)
          if shards = 1 && !runs <> 1 then Alcotest.fail "1-shard runs")
        hops;
      true)

(* ---- argument validation ---- *)

let test_engine_rejects () =
  List.iter
    (fun shards ->
      match Engine.create ~shards (Generators.path 4) with
      | _ -> Alcotest.failf "shards=%d must be rejected" shards
      | exception Invalid_argument _ -> ())
    [ 0; Engine.max_shards + 1 ];
  ignore (Engine.create ~shards:Engine.max_shards (Generators.path 4))

let test_cli_rejects () =
  let rc args = Sys.command ("../bin/fg_cli.exe " ^ args ^ " > /dev/null 2>&1") in
  List.iter
    (fun args -> Alcotest.(check int) args 2 (rc args))
    [
      "attack --family er -n 128 --fraction 0.4 --shards 2 --round 0";
      "attack --family er -n 128 --fraction 0.4 --shards 2000";
      "attack --family er -n 128 --shards=-1";
      "simulate --family er -n 64 --deletions 4 --shards 2 --round 0";
      "simulate --family er -n 64 --deletions 4 --shards 1025";
      "serve-bench --family er -n 64 --duration 0.1 --shards 2000";
    ];
  Alcotest.(check int) "--round 0 without --shards is ignored" 0
    (rc "attack --family er -n 32 --fraction 0.2 --round 0")

(* ---- byte-identity with the flat engine ---- *)

type ev = Ins of int * int list | Del of int list

(* Build a random attack script by running it against a flat engine:
   inserts of fresh ids wired to live nodes, round-deletes of up to [k]
   simultaneous victims. Returns the script and the flat engine's
   per-event deltas plus its final state. *)
let gen_script seed g0 ~events ~k =
  let rng = Rng.create seed in
  let fg = Fg.of_graph (Adjacency.copy g0) in
  let script = ref [] and deltas = ref [] in
  for _ = 1 to events do
    let live = Fg.live_nodes fg in
    let n_live = List.length live in
    if n_live > 8 && Rng.float rng 1.0 < 0.75 then begin
      let nv = 1 + Rng.int rng (min k (n_live - 2)) in
      let victims =
        Array.to_list (Rng.sample rng nv (Array.of_list live))
      in
      let d, _ = Fg.delete_batch_delta fg victims in
      script := Del victims :: !script;
      deltas := d :: !deltas
    end
    else begin
      let id = Fg.num_seen fg in
      let nn = 1 + Rng.int rng 3 in
      let nbrs = Array.to_list (Rng.sample rng nn (Array.of_list live)) in
      let d = Fg.insert_delta fg id nbrs in
      script := Ins (id, nbrs) :: !script;
      deltas := d :: !deltas
    end
  done;
  (List.rev !script, List.rev !deltas, fg)

let root_ids fg =
  List.sort compare (List.map (fun v -> v.Rt.id) (Rt.rt_roots (Fg.ctx fg)))

let check_same_state label flat eng =
  let fg = Engine.fg eng in
  Alcotest.(check bool)
    (label ^ ": graph identical") true
    (Adjacency.equal (Fg.graph flat) (Fg.graph fg));
  Alcotest.(check bool)
    (label ^ ": gprime identical") true
    (Adjacency.equal (Fg.gprime flat) (Fg.gprime fg));
  Alcotest.(check (list int)) (label ^ ": RT root ids") (root_ids flat) (root_ids fg);
  Alcotest.(check int) (label ^ ": generation") (Fg.generation flat) (Fg.generation fg)

(* Replay [script] on a K-shard engine; every per-event delta must be
   structurally equal to the flat engine's, and every round must pass
   the sharded audit. [block] is tiny so repair groups straddle shards
   (forced cross-shard deletes). *)
let replay_and_check ?(audit = true) ~shards ~block g0 script flat_deltas flat =
  let eng = Engine.create ~shards ~block (Adjacency.copy g0) in
  List.iter2
    (fun ev flat_d ->
      let d =
        match ev with
        | Ins (id, nbrs) -> Engine.insert_delta eng id nbrs
        | Del victims ->
            let d, _ = Engine.delete_round_delta eng victims in
            if audit then begin
              match
                Check.check_round (Engine.fg eng) ~delta:d
                  ~info:(Engine.last_round eng)
              with
              | [] -> ()
              | e :: _ -> Alcotest.failf "audit (K=%d): %s" shards e
            end;
            d
      in
      if d <> flat_d then
        Alcotest.failf "delta diverged (K=%d) at gen %d" shards d.Fg_core.Delta.gen)
    script flat_deltas;
  check_same_state (Printf.sprintf "K=%d" shards) flat eng;
  (match Fg_core.Invariants.check (Engine.fg eng) with
  | [] -> ()
  | e :: _ -> Alcotest.failf "invariants (K=%d): %s" shards e);
  eng

let test_identity_er () =
  let rng = Rng.create 905 in
  let g0 = Generators.erdos_renyi rng 80 0.08 in
  let script, deltas, flat = gen_script 31 g0 ~events:40 ~k:4 in
  List.iter
    (fun shards -> ignore (replay_and_check ~shards ~block:2 g0 script deltas flat))
    [ 1; 2; 4 ]

let test_identity_ba () =
  let rng = Rng.create 906 in
  let g0 = Generators.barabasi_albert rng 70 3 in
  let script, deltas, flat = gen_script 77 g0 ~events:30 ~k:5 in
  List.iter
    (fun shards -> ignore (replay_and_check ~shards ~block:4 g0 script deltas flat))
    [ 2; 4 ]

(* cross-shard groups actually occurred: with block=2 over 80 nodes and
   multi-victim rounds, some group must span owners *)
let test_cross_shard_groups_exercised () =
  let rng = Rng.create 907 in
  let g0 = Generators.erdos_renyi rng 60 0.1 in
  let script, deltas, flat = gen_script 13 g0 ~events:25 ~k:6 in
  let eng = replay_and_check ~shards:4 ~block:2 g0 script deltas flat in
  let stats = Engine.stats eng in
  let cross = Array.fold_left (fun a s -> a + s.Engine.cross_groups) 0 stats in
  let heals = Array.fold_left (fun a s -> a + s.Engine.heals) 0 stats in
  Alcotest.(check bool) "some groups were cross-shard" true (cross > 0);
  Alcotest.(check bool) "heals happened" true (heals > 0);
  Alcotest.(check bool) "work spread beyond one shard" true
    (Array.to_list stats |> List.filter (fun s -> s.Engine.heals > 0) |> List.length > 1)

(* a live sink pins every round to the coordinator: the serial staging
   loop must match the flat engine delta for delta and pass the stage
   audit, with K > 1 and cross-shard groups *)
let test_identity_serial_with_metrics () =
  let rng = Rng.create 908 in
  let g0 = Generators.erdos_renyi rng 90 0.08 in
  let script, deltas, flat = gen_script 55 g0 ~events:36 ~k:4 in
  let was = Fg_obs.Metrics.is_recording () in
  Fg_obs.Metrics.set_recording true;
  let eng =
    Fun.protect
      ~finally:(fun () -> Fg_obs.Metrics.set_recording was)
      (fun () -> replay_and_check ~shards:2 ~block:2 g0 script deltas flat)
  in
  let heals = Array.fold_left (fun a s -> a + s.Engine.heals) 0 (Engine.stats eng) in
  Alcotest.(check bool) "heals happened" true (heals > 0)

(* the staged round machinery on the core API: healing groups in reverse
   order on two executors must equal delete_batch *)
let test_core_round_reverse_equals_batch () =
  let rng = Rng.create 909 in
  let g0 = Generators.erdos_renyi rng 50 0.12 in
  let fg_a = Fg.of_graph (Adjacency.copy g0) in
  let fg_b = Fg.of_graph (Adjacency.copy g0) in
  let wrng = Rng.create 4242 in
  for _ = 1 to 10 do
    let live = Fg.live_nodes fg_a in
    if List.length live > 10 then begin
      let victims =
        Array.to_list (Rng.sample wrng 4 (Array.of_list live))
      in
      Fg.delete_batch fg_a victims;
      let ex0 = Fg.round_executor ~slot:0 fg_b in
      let ex1 = Fg.round_executor ~slot:1 fg_b in
      Fg.delete_round fg_b victims ~exec:(fun groups ->
          for i = Array.length groups - 1 downto 0 do
            let ex = if i mod 2 = 0 then ex0 else ex1 in
            Fg.heal_group_staged fg_b ~executor:ex groups.(i)
          done)
    end
  done;
  Alcotest.(check bool) "graph identical" true
    (Adjacency.equal (Fg.graph fg_a) (Fg.graph fg_b));
  Alcotest.(check bool) "gprime identical" true
    (Adjacency.equal (Fg.gprime fg_a) (Fg.gprime fg_b));
  Alcotest.(check (list int)) "RT root ids" (root_ids fg_a) (root_ids fg_b)

let suite =
  [
    Alcotest.test_case "map: block-cyclic formula" `Quick test_map_formula;
    Alcotest.test_case "map: rejects bad args" `Quick test_map_rejects;
    Alcotest.test_case "engine: rejects bad shard counts" `Quick test_engine_rejects;
    Alcotest.test_case "cli: bad --shards/--round exit 2" `Quick test_cli_rejects;
    Alcotest.test_case "identity: ER script, K in {1,2,4}" `Quick test_identity_er;
    Alcotest.test_case "identity: BA script, K in {2,4}" `Quick test_identity_ba;
    Alcotest.test_case "identity: cross-shard groups occur" `Quick
      test_cross_shard_groups_exercised;
    Alcotest.test_case "identity: serial staging, sink live" `Quick
      test_identity_serial_with_metrics;
    Alcotest.test_case "core: reverse staged round = batch" `Quick
      test_core_round_reverse_equals_batch;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_map_canonical_runs ]
