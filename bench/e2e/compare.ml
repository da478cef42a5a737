(* [fg_bench compare A.json B.json]: per workload and end-to-end metric,
   the median and quartiles of each side's runs and a verdict against the
   metric's regression bound from BENCHMARK.json. *)

module J = Fg_obs.Json

type bound = { name : string; unit : string; higher_better : bool; bound : float }

let read_json file =
  match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let list k j = match J.member k j with Some (J.List l) -> l | _ -> []
let str k j = Option.bind (J.member k j) J.to_str |> Option.value ~default:""
let num k j = Option.bind (J.member k j) J.to_float

let bounds_of file =
  List.map
    (fun m ->
      {
        name = str "name" m;
        unit = str "unit" m;
        higher_better = str "better" m = "higher";
        bound = Option.value (num "bound" m) ~default:0.;
      })
    (list "end_to_end" (read_json file))

(* untraced runs of one workload *)
let runs_of j workload =
  List.filter
    (fun r -> str "workload" r = workload && J.member "traced" r = Some (J.Bool false))
    (list "runs" j)

let metric_values runs name =
  List.filter_map
    (fun r -> Option.bind (J.member "metrics" r) (fun ms -> Option.bind (J.member name ms) (num "value")))
    runs

let sum_int k runs =
  List.fold_left (fun acc r -> acc + Option.value (Option.bind (J.member k r) J.to_int) ~default:0) 0 runs

type verdict = Better | Worse | Equal | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Equal -> "equal"
  | Unresolved -> "unresolved"

(* A difference counts only beyond the bound; a side whose quartile
   spread exceeds the bound cannot resolve one, unless every run of B
   beats every run of A. *)
let judge b a_vals b_vals =
  let q1a, ma, q3a = Stats.quartiles a_vals and q1b, mb, q3b = Stats.quartiles b_vals in
  let spread q1 q3 m = if m = 0. then 0. else (q3 -. q1) /. Float.abs m in
  let worse_by = if ma = 0. then 0. else (if b.higher_better then ma -. mb else mb -. ma) /. Float.abs ma in
  let beats x y = if b.higher_better then x > y else x < y in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> beats x y) a_vals) b_vals in
  let v =
    if spread q1a q3a ma > b.bound || spread q1b q3b mb > b.bound then
      if all_better then Better else Unresolved
    else if worse_by > b.bound then Worse
    else if -.worse_by > b.bound then Better
    else Equal
  in
  ((q1a, ma, q3a), (q1b, mb, q3b), worse_by, v)

let workloads j =
  List.fold_left
    (fun acc r ->
      let w = str "workload" r in
      if List.mem w acc then acc else acc @ [ w ])
    [] (list "runs" j)

let run ~bounds_file a_file b_file =
  let bounds = bounds_of bounds_file in
  let a = read_json a_file and b = read_json b_file in
  let host j = Host.of_json (Option.value (J.member "host" j) ~default:(J.Obj [])) in
  let ha = host a and hb = host b in
  let bad = ref false in
  Printf.printf "A: %s\n   %s\nB: %s\n   %s\n" a_file (Host.describe ha) b_file (Host.describe hb);
  if ha.nproc <> hb.nproc || ha.ocaml <> hb.ocaml then begin
    Printf.printf "host class mismatch: nproc %d vs %d, OCaml %s vs %s\n" ha.nproc hb.nproc ha.ocaml
      hb.ocaml;
    bad := true
  end;
  Printf.printf "%-16s %-15s %-6s %26s %26s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "worse%" "verdict";
  List.iter
    (fun w ->
      let ra = runs_of a w and rb = runs_of b w in
      if ra = [] || rb = [] then Printf.printf "%-16s (runs on one side only)\n" w
      else begin
        List.iter
          (fun bd ->
            match (metric_values ra bd.name, metric_values rb bd.name) with
            | [], _ | _, [] -> Printf.printf "%-16s %-15s missing on one side\n" w bd.name
            | av, bv ->
              let (q1a, ma, q3a), (q1b, mb, q3b), worse_by, v = judge bd av bv in
              if v = Worse then bad := true;
              Printf.printf "%-16s %-15s %-6s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %+7.2f%%  %s\n" w
                bd.name bd.unit ma q1a q3a mb q1b q3b (100. *. worse_by) (verdict_name v))
          bounds;
        let ff runs = float_of_int (sum_int "failed" runs) /. float_of_int (max 1 (sum_int "attempted" runs)) in
        if ff rb > ff ra then begin
          Printf.printf "%-16s failed_frac rose: %.6f -> %.6f\n" w (ff ra) (ff rb);
          bad := true
        end;
        (* equal seeds must give equal scripts *)
        List.iter
          (fun r ->
            List.iter
              (fun r' ->
                if num "seed" r = num "seed" r' && str "digest" r <> str "digest" r' then begin
                  Printf.printf "%-16s seed %s: script digests differ\n" w
                    (Option.fold ~none:"?" ~some:(Printf.sprintf "%.0f") (num "seed" r));
                  bad := true
                end)
              rb)
          ra
      end)
    (workloads a);
  if !bad then 1 else 0
