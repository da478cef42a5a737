(* fg_bench: the repository's end-to-end benchmark.

     fg_bench run --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--spans FILE] [--smoke]
       One workload in this process. Prints a table, then one JSON
       record line, then (last) the result line
       {"correct", "attempted", "failed", "metrics"}: the end-to-end
       metrics untraced, the per-layer ones with --trace 1. Exit 1 if
       any check or operation failed.

     fg_bench all [--seed N] [--seconds S] [--runs K] [--trace FILE]
                  [--out FILE] [--smoke] [--workload W]...
       Each workload K times (seeds N..N+K-1), each run in a fresh child
       process; with --trace (always with --smoke), one more traced run
       per workload whose spans go to FILE as JSONL, and the tracing
       overhead. --out writes every record plus the host fingerprint.

     fg_bench compare A.json B.json [--bounds BENCHMARK.json]
       Medians, quartiles and a verdict per workload and end-to-end
       metric; exit 1 on a worse metric, a higher failed_frac or a
       host-class mismatch. *)

module J = Fg_obs.Json
module W = Workload

let usage () =
  prerr_endline
    "usage: fg_bench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] \
     [--smoke]\n\
    \       fg_bench all [--seed N] [--seconds S] [--runs K] [--trace FILE] [--out FILE] \
     [--smoke] [--workload W]...\n\
    \       fg_bench compare A.json B.json [--bounds BENCHMARK.json]";
  exit 2

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string option;  (** run: "0"/"1"; all: the spans file *)
  mutable spans : string option;
  mutable smoke : bool;
  mutable runs : int;
  mutable out : string option;
  mutable bounds : string;
  mutable files : string list;
}

let parse args =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = 10.;
      trace = None;
      spans = None;
      smoke = false;
      runs = 1;
      out = None;
      bounds = "BENCHMARK.json";
      files = [];
    }
  in
  let num f v = try f v with Failure _ -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> o.workloads <- o.workloads @ [ v ]; go r
    | "--seed" :: v :: r -> o.seed <- num int_of_string v; go r
    | "--seconds" :: v :: r -> o.seconds <- num float_of_string v; go r
    | "--trace" :: v :: r -> o.trace <- Some v; go r
    | "--spans" :: v :: r -> o.spans <- Some v; go r
    | "--smoke" :: r -> o.smoke <- true; go r
    | "--runs" :: v :: r -> o.runs <- num int_of_string v; go r
    | "--out" :: v :: r -> o.out <- Some v; go r
    | "--bounds" :: v :: r -> o.bounds <- v; go r
    | f :: r when String.length f > 0 && f.[0] <> '-' -> o.files <- o.files @ [ f ]; go r
    | _ -> usage ()
  in
  go args;
  if o.seconds <= 0. || o.runs < 1 then usage ();
  o

let workload_of name smoke =
  match W.find name with
  | Some w -> if smoke then W.smoke w else w
  | None ->
    Printf.eprintf "unknown workload %s (known: %s)\n" name
      (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
    exit 2

let metrics_json ms =
  J.Obj
    (List.map
       (fun (m : Runner.metric) -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
       ms)

(* ---- run ---- *)

let cmd_run o =
  let name = match o.workloads with [ w ] -> w | _ -> usage () in
  let w = workload_of name o.smoke in
  let traced =
    match o.trace with None | Some "0" -> false | Some "1" -> true | Some _ -> usage ()
  in
  let host = Host.fingerprint () in
  let r = Runner.run w ~seed:o.seed ~seconds:o.seconds ~traced in
  (match o.spans with
  | Some file when traced ->
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
        Spans.write oc ~workload:w.name ~origin:r.origin r.spans)
  | _ -> ());
  Printf.printf "# fg_bench %s seed=%d seconds=%g traced=%b digest=%s\n# host %s\n" w.name o.seed
    o.seconds traced r.digest (Host.describe host);
  List.iter
    (fun (m : Runner.metric) -> Printf.printf "  %-42s %-6s %14.6g\n" m.name m.unit m.value)
    (r.end_to_end @ r.per_layer);
  List.iter (fun f -> Printf.eprintf "fg_bench %s: CHECK FAILED: %s\n" w.name f) r.failures;
  let correct = r.failures = [] in
  let ok = correct && r.failed = 0 in
  let record =
    J.Obj
      [
        ("workload", J.Str w.name);
        ("seed", J.Int o.seed);
        ("seconds", J.Float o.seconds);
        ("smoke", J.Bool o.smoke);
        ("traced", J.Bool traced);
        ("digest", J.Str r.digest);
        ("host", Host.to_json host);
        ("correct", J.Bool correct);
        ("attempted", J.Int r.attempted);
        ("failed", J.Int r.failed);
        ("failures", J.List (List.map (fun s -> J.Str s) r.failures));
        ("metrics", metrics_json (if ok then r.end_to_end @ r.per_layer else []));
      ]
  in
  print_endline (J.to_string (J.Obj [ ("record", record) ]));
  (* the result line: end-to-end metrics untraced, per-layer traced; none
     at all when anything failed *)
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("metrics", metrics_json (if not ok then [] else if traced then r.per_layer else r.end_to_end));
          ]));
  exit (if ok then 0 else 1)

(* ---- all ---- *)

(* Runs one child, echoing its table; returns its record, if it printed one. *)
let child args =
  let prog = Sys.executable_name in
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let record = ref None in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  List.iter
    (fun line ->
      match J.of_string line with
      | Ok j when J.member "record" j <> None -> record := J.member "record" j
      | Ok (J.Obj _) -> ()
      | _ -> if line <> "" then print_endline line)
    lines;
  flush stdout;
  (status, !record)

let value_of record name =
  Option.bind (J.member "metrics" record) (fun ms ->
      Option.bind (J.member name ms) (fun m -> Option.bind (J.member "value" m) J.to_float))

let cmd_all o =
  let names = if o.workloads = [] then List.map (fun (w : W.t) -> w.name) W.all else o.workloads in
  List.iter (fun n -> ignore (workload_of n o.smoke : W.t)) names;
  let spans_file = o.trace in
  Option.iter (fun f -> close_out (open_out f)) spans_file;
  let host = Host.fingerprint () in
  let ok = ref true and records = ref [] and overhead = ref [] in
  let common = [ "--seconds"; Printf.sprintf "%g" o.seconds ] @ if o.smoke then [ "--smoke" ] else [] in
  List.iter
    (fun name ->
      let run seed traced =
        let args =
          [ "run"; "--workload"; name; "--seed"; string_of_int seed; "--trace"; (if traced then "1" else "0") ]
          @ common
          @ match spans_file with Some f when traced -> [ "--spans"; f ] | _ -> []
        in
        let status, record = child args in
        (match (status, record) with
        | Unix.WEXITED 0, Some r -> records := !records @ [ r ]
        | _, r ->
          Option.iter (fun r -> records := !records @ [ r ]) r;
          Printf.printf "fg_bench: %s seed %d%s failed\n%!" name seed (if traced then " (traced)" else "");
          ok := false);
        record
      in
      let untraced = List.init o.runs (fun i -> run (o.seed + i) false) in
      if o.smoke || spans_file <> None then begin
        let traced = run o.seed true in
        let eps r = Option.bind r (fun r -> value_of r "events_per_s") in
        match (eps (List.hd untraced), eps traced) with
        | Some u, Some t when u > 0. ->
          let v = (u -. t) /. u in
          overhead := !overhead @ [ (name, v) ];
          Printf.printf "  %-42s %-6s %14.6g\n%!" "trace.overhead_frac" "frac" v
        | _ -> ()
      end)
    names;
  (* summary: median of the untraced runs per end-to-end metric *)
  Printf.printf "\n# fg_bench summary (median of %d run%s) host %s\n" o.runs
    (if o.runs = 1 then "" else "s") (Host.describe host);
  List.iter
    (fun name ->
      let rs =
        List.filter
          (fun r ->
            Option.bind (J.member "workload" r) J.to_str = Some name
            && J.member "traced" r = Some (J.Bool false))
          !records
      in
      match rs with
      | [] -> ()
      | r0 :: _ ->
        Printf.printf "%s\n" name;
        let ms = match J.member "metrics" r0 with Some (J.Obj ms) -> ms | _ -> [] in
        List.iter
          (fun (k, m) ->
            let unit = Option.bind (J.member "unit" m) J.to_str |> Option.value ~default:"" in
            match List.filter_map (fun r -> value_of r k) rs with
            | [] -> ()
            | vs ->
              let _, med, _ = Stats.quartiles vs in
              Printf.printf "  %-42s %-6s %14.6g\n" k unit med)
          ms)
    names;
  Option.iter
    (fun file ->
      let j =
        J.Obj
          [
            ("bench", J.Str "fg_bench");
            ("host", Host.to_json host);
            ("seconds", J.Float o.seconds);
            ("smoke", J.Bool o.smoke);
            ("runs", J.List !records);
            ("trace_overhead_frac", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) !overhead));
          ]
      in
      Out_channel.with_open_text file (fun oc ->
          output_string oc (J.to_string j);
          output_char oc '\n'))
    o.out;
  exit (if !ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> cmd_run (parse rest)
  | _ :: "all" :: rest -> cmd_all (parse rest)
  | _ :: "compare" :: rest -> (
    let o = parse rest in
    match o.files with
    | [ a; b ] -> exit (Compare.run ~bounds_file:o.bounds a b)
    | _ -> usage ())
  | _ -> usage ()
