(* What a measurement was taken on, and process-level readings. *)

(* Peak resident set of a process in MiB, from VmHWM in
   /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      scan ())

(* (steal, total) jiffies over all CPUs, from the first line of
   /proc/stat: how much of the host's time the hypervisor took away. *)
let cpu_jiffies () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
      (* user nice system idle iowait irq softirq steal; the guest
         fields after them are already counted in user and nice *)
      let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 v)
  | _ -> failwith "unexpected /proc/stat"

(* CPU seconds process [pid] has run, user plus system, all its threads,
   from /proc/<pid>/stat (in clock ticks of 1/100 s). As for this
   process's own CPU time, time the hypervisor stole is left out. *)
let process_cpu pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  let ic = open_in path in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the command name in parentheses may hold spaces: count fields
     after its closing parenthesis, where field 3 (the state) begins *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: fields -> (
      match List.filteri (fun i _ -> i = 10 || i = 11) fields with
      | [ utime; stime ] -> float_of_int (int_of_string utime + int_of_string stime) /. 100.0
      | _ -> failwith ("unexpected " ^ path))
  | [] -> failwith ("unexpected " ^ path)

(* Digest of the source files the benchmark builds (lib/, bin/, share/
   and the dune-project), so a result names the code it measured even
   in a checkout that is not a git repository. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk p else files := p :: !files)
      (Sys.readdir dir)
  in
  List.iter (fun d -> if Sys.file_exists d then walk d) [ "lib"; "bin"; "share" ];
  let files = List.sort compare ("dune-project" :: !files) in
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun p -> p ^ " " ^ Digest.to_hex (Digest.file p)) files)))
  |> fun h -> String.sub h 0 12

let record ~commit ~workload ~seed ~seconds ~trace =
  Printf.sprintf
    "[host] commit=%s source=%s cores=%d ocaml=%s workload=%s seed=%d seconds=%d trace=%d"
    commit (source_digest ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version workload seed seconds
    (if trace then 1 else 0)

(* A fresh scratch directory under .perfbench/ in the working directory,
   removed again by [cleanup]. *)
let scratch_root = ".perfbench"

let make_scratch () =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let dir = Filename.concat scratch_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let rec remove_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun n -> remove_tree (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
