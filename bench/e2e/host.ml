(* What a result was measured on: the host fingerprint stamped on every
   record, and the process's peak resident set. *)

module J = Fg_obs.Json

(* [first_line prog args] is the command's first output line and the rest
   of its output, or [None] if it cannot run or fails. *)
let first_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = In_channel.input_line ic in
    let rest = In_channel.input_all ic in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (Option.value line ~default:"", rest)
    | _ -> None)

(* Git state of the current directory, read only from its own [.git] (so
   a checkout that is not a repository reports "unknown" instead of
   finding an enclosing one). *)
let git () =
  if not (Sys.file_exists ".git") then ("unknown", false)
  else
    let git args = first_line "git" ("--git-dir=.git" :: "--work-tree=." :: args) in
    match git [ "rev-parse"; "HEAD" ] with
    | None -> ("unknown", false)
    | Some (commit, _) ->
      let dirty =
        match git [ "status"; "--porcelain"; "--untracked-files=no" ] with
        | Some (first, rest) -> first <> "" || rest <> ""
        | None -> false
      in
      (commit, dirty)

type t = {
  nproc : int;
  ocaml : string;
  ocamlrunparam : string;
  commit : string;
  dirty : bool;
}

let fingerprint () =
  let commit, dirty = git () in
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    ocamlrunparam = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"";
    commit;
    dirty;
  }

let to_json h =
  J.Obj
    [
      ("nproc", J.Int h.nproc);
      ("ocaml", J.Str h.ocaml);
      ("ocamlrunparam", J.Str h.ocamlrunparam);
      ("commit", J.Str h.commit);
      ("dirty", J.Bool h.dirty);
    ]

let of_json j =
  let str k = Option.bind (J.member k j) J.to_str |> Option.value ~default:"" in
  {
    nproc = Option.bind (J.member "nproc" j) J.to_int |> Option.value ~default:0;
    ocaml = str "ocaml";
    ocamlrunparam = str "ocamlrunparam";
    commit = str "commit";
    dirty = (match J.member "dirty" j with Some (J.Bool b) -> b | _ -> false);
  }

let describe h =
  Printf.sprintf "nproc=%d ocaml=%s OCAMLRUNPARAM=%S commit=%s%s" h.nproc h.ocaml
    h.ocamlrunparam h.commit
    (if h.dirty then "+dirty" else "")

(* VmHWM of this process, in MB (0 where /proc is unavailable). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' text)
