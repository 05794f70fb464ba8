(* The host-performance benchmark. One process runs one named workload:

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --daemon PATH/salam_served.exe [--commit ID]

   Every run measures all three phases (sim_suite, dse_sweep,
   served_mix) so that it can report every end-to-end metric; the
   workload named gives its own phase most of the measured time. With
   --trace 0 the last stdout line is the end-to-end metrics as JSON; with
   --trace 1 spans are recorded around every call into the program, the
   layer probes run, the spans are written as Chrome trace-event JSON and
   the last line holds the per-layer metrics. See README.md. *)

module M = Measure
module W = Salam_workloads.Workload

let workloads = [ "sim_suite"; "dse_sweep"; "served_mix" ]

(* Share of --seconds each phase (sim, dse, served) gets: the named
   workload's phase gets the most. The served phase keeps at least 0.3,
   because its tail latency needs many slices to be steady; the DSE
   phase keeps 0.25, three or more sweeps. *)
let shares = function
  | "sim_suite" -> (0.45, 0.25, 0.3)
  | "dse_sweep" -> (0.2, 0.5, 0.3)
  | _ -> (0.2, 0.3, 0.5)

(* Set-ups: [first_setups] before the first phase, then one whenever
   [setup_gap] seconds have passed, between operations, so that they
   sample the host over the whole run as the other metrics do. *)
let first_setups = 3
let setup_gap = 2.0
let hwdb_path = Filename.concat "share" "salam-40nm.db"

(* Load and register the characterization database and compile every
   kernel, which fills the per-process compile cache the simulations
   use: the seconds of the load and of each kernel's compile. *)
let load_and_compile () =
  let h0 = Unix.gettimeofday () in
  (match Span.with_ "config.hwdb_load" (fun () -> Salam_config.load hwdb_path) with
  | Ok db -> ignore (Salam_config.register db)
  | Error e -> failwith e);
  let hwdb = Unix.gettimeofday () -. h0 in
  let compile =
    List.map
      (fun w ->
        let c0 = Unix.gettimeofday () in
        Span.with_ ~args:[ ("kernel", w.W.name) ] "frontend.compile" (fun () -> ignore (W.compile w));
        Unix.gettimeofday () -. c0)
      (Sim_phase.kernels ())
  in
  (hwdb, compile)

(* [--set-up DIR DAEMON]: one whole set-up in a fresh process, as a run
   of the program starts: load and compile, then start the daemon and
   wait until it answers. As soon as the first timed operation could
   run it prints "ready <load s> <compile s per kernel>". Then it stops
   the daemon and prints "cpu <s>": its own CPU time until ready (since
   the fork, exec included) plus the daemon's over its life, which is
   its start-up but for one ping and the shutdown. *)
let serve_set_up ~dir ~daemon =
  let hwdb, compile = load_and_compile () in
  let d = Served_phase.start_daemon ~exe:daemon ~dir in
  let own = M.cpu_now () in
  Printf.printf "ready %s\n%!" (String.concat " " (List.map (Printf.sprintf "%.9f") (hwdb :: compile)));
  Served_phase.stop_daemon d;
  let t = Unix.times () in
  Printf.printf "cpu %.9f\n%!" (own +. t.Unix.tms_cutime +. t.Unix.tms_cstime);
  exit 0

type setup = {
  start : float;
  seconds : float;  (** from spawning the set-up process until it is ready *)
  cpu_seconds : float;  (** the set-up process's until ready, plus the daemon's *)
  hwdb_load : float;
  compile : float list;  (** per kernel *)
}

let set_up ~dir ~daemon =
  Span.with_ "setup" (fun () ->
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let me = Sys.executable_name in
      let t0 = Unix.gettimeofday () in
      let pid = Unix.create_process me [| me; "--set-up"; dir; daemon |] Unix.stdin out_w Unix.stderr in
      Unix.close out_w;
      let ic = Unix.in_channel_of_descr out_r in
      let line () = try Option.map (String.split_on_char ' ') (Some (input_line ic)) with End_of_file -> None in
      let ready = line () in
      let seconds = Unix.gettimeofday () -. t0 in
      let cpu = line () in
      ignore (Unix.waitpid [] pid);
      close_in ic;
      match (ready, cpu) with
      | Some ("ready" :: hwdb :: compile), Some [ "cpu"; cpu ] ->
          {
            start = t0;
            seconds;
            cpu_seconds = float_of_string cpu;
            hwdb_load = float_of_string hwdb;
            compile = List.map float_of_string compile;
          }
      | _ -> failwith "the set-up process did not get ready")

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : M.metric) -> Printf.printf "  %-34s %16.4f %s\n" m.M.name m.M.value m.M.unit_)
    metrics

let result_line ~correct metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    !M.attempted !M.failed
    (String.concat ", "
       (List.map
          (fun (m : M.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.M.name (json_number m.M.value)
              m.M.unit_)
          metrics))

let print_spans ~timed_wall path =
  let spans = Span.all () in
  Span.write_chrome path spans;
  Printf.printf "[trace] %d spans written to %s\n" (List.length spans) path;
  Printf.printf "[trace] self time per span name (share of %.2f s timed wall time):\n" timed_wall;
  Printf.printf "  %-28s %8s %11s %11s %7s\n" "span" "count" "total ms" "self ms" "self %";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "  %-28s %8d %11.1f %11.1f %6.1f%%\n" name n (total *. 1e3) (self *. 1e3)
        (100.0 *. self /. timed_wall))
    (Span.self_times spans);
  let children = Span.index spans in
  List.iter
    (fun (s : Span.t) ->
      if String.length s.Span.name > 6 && String.sub s.Span.name 0 6 = "phase." then
        Printf.printf "[trace] %s: child spans cover %.1f%% of its %.2f s\n" s.Span.name
          (100.0 *. Span.coverage children s)
          (s.Span.t1 -. s.Span.t0))
    spans;
  (* the recorder's own cost: time spans that do nothing *)
  let n = List.length spans in
  let per_span = M.per_call ~reps:5 ~batch:2000 (fun () -> Span.with_ "trace.self_cost" ignore) in
  Printf.printf "[trace] overhead: %.2f us per span x %d spans = %.3f s (%.2f%% of timed wall time)\n"
    (per_span *. 1e6) n (per_span *. float_of_int n)
    (100.0 *. per_span *. float_of_int n /. timed_wall)

let run ~workload ~seed ~seconds ~trace ~exe ~commit =
  print_endline (Hostinfo.record ~commit ~workload ~seed ~seconds ~trace);
  Span.enabled := trace;
  let dir = Hostinfo.make_scratch () in
  let daemon = ref None in
  let cleanup () =
    Option.iter Served_phase.kill_daemon !daemon;
    daemon := None;
    Hostinfo.remove_tree dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      let ups = ref [] and last_setup = ref 0.0 in
      let one_setup () =
        let sdir = Filename.concat dir (Printf.sprintf "setup-%d" (List.length !ups)) in
        Sys.mkdir sdir 0o755;
        ups := set_up ~dir:sdir ~daemon:exe :: !ups;
        Hostinfo.remove_tree sdir;
        last_setup := Unix.gettimeofday ()
      in
      for _ = 1 to first_setups do
        one_setup ();
        M.reference ()
      done;
      M.between := (fun () -> if Unix.gettimeofday () -. !last_setup >= setup_gap then one_setup ());
      ignore (Span.with_ "prepare" load_and_compile);
      let sim_share, dse_share, served_share = shares workload in
      let budget share = share *. float_of_int seconds in
      (* the named workload's phase runs first, right after set-up, and
         the benchmark process's peak resident set is read after its
         first round, whose work does not depend on the host's speed *)
      let sim = ref None and dse = ref None and served = ref None and own_rss = ref nan in
      let after_first () = if Float.is_nan !own_rss then own_rss := Hostinfo.peak_rss_mb "self" in
      let phases =
        [
          ( "sim_suite",
            fun () -> sim := Some (Sim_phase.run ~after_first ~budget:(budget sim_share) ~seed ()) );
          ( "dse_sweep",
            fun () -> dse := Some (Dse_phase.run ~after_first ~budget:(budget dse_share) ~seed ~dir ()) );
          ( "served_mix",
            fun () ->
              served := Some (Served_phase.run ~budget:(budget served_share) ~seed ~exe ~dir daemon) );
        ]
      in
      let timed_start = Unix.gettimeofday () in
      let steal0, total0 = Hostinfo.cpu_jiffies () in
      (List.assoc workload phases) ();
      List.iter (fun (name, phase) -> if name <> workload then phase ()) phases;
      let timed_wall = Unix.gettimeofday () -. timed_start in
      M.between := ignore;
      M.reference ();
      let ups = !ups in
      let steal1, total1 = Hostinfo.cpu_jiffies () in
      let sim = Option.get !sim and dse = Option.get !dse in
      let served, evidence = Option.get !served in
      let d = Option.get !daemon in
      let probes =
        if trace then
          Sim_phase.layer_probes ~seed
          @ Dse_phase.layer_probes ~dir dse.Dse_phase.full
          @ Served_phase.layer_probes d evidence
        else []
      in
      Served_phase.stop_daemon d;
      daemon := None;
      let find = if trace then [ Served_phase.store_find_ns d evidence ] else [] in
      Sim_phase.check ~seed;
      Dse_phase.check ();
      Served_phase.check evidence;
      (* a set-up's CPU time in both its processes, scaled; its wall time
         also counts the waits for the other process, which a stolen
         CPU stretches *)
      let setup_time clock =
        List.map (fun s -> { M.start = s.start; wall = s.seconds; cpu = s.cpu_seconds }) ups |> List.map clock
      in
      let setup_s = M.median (setup_time (M.scaler M.Cpu)) in
      let alt =
        ("setup_s.unscaled_cpu", M.median (setup_time (M.pick M.Cpu)))
        :: ("setup_s.unscaled_wall", M.median (setup_time (M.pick M.Wall)))
        :: sim.Sim_phase.alt
        @ dse.Dse_phase.alt @ served.Served_phase.alt
      in
      let e2e =
        [
          M.metric "setup_s" "s" setup_s;
          M.metric "peak_rss_mb" "MiB"
            (if workload = "served_mix" then served.Served_phase.daemon_rss_mb else !own_rss);
        ]
        @ sim.Sim_phase.e2e @ dse.Dse_phase.e2e @ served.Served_phase.e2e
      in
      let layer =
        let compile = List.map (fun s -> s.compile) ups in
        let per_kernel = List.init (List.length (List.hd compile)) (fun k -> M.median (List.map (fun c -> List.nth c k) compile)) in
        [
          M.metric "frontend.compile_us" "us" (M.median per_kernel *. 1e6);
          M.metric "config.hwdb_load_ms" "ms" (M.median (List.map (fun s -> s.hwdb_load) ups) *. 1e3);
        ]
        @ sim.Sim_phase.layer @ dse.Dse_phase.layer @ served.Served_phase.layer @ probes @ find
      in
      Printf.printf
        "[rounds] sim_suite=%d dse_sweep=%d served_mix=%d slices; %d set-ups; %d operations; timed wall %.2f s\n"
        sim.Sim_phase.rounds dse.Dse_phase.rounds served.Served_phase.slices (List.length ups) !M.attempted
        timed_wall;
      let refs clock = M.median (List.map (M.pick clock) !M.ref_log) *. 1e3 in
      Printf.printf
        "[host-speed] %d reference samples (%d with a collection): median %.3f ms CPU, %.3f ms wall \
         (nominal %.3f ms); steal %.1f%% of CPU time\n"
        (List.length !M.ref_log) !M.ref_collections (refs M.Cpu) (refs M.Wall) (M.nominal *. 1e3)
        (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)));
      List.iter (fun (name, v) -> Printf.printf "[alt] %s %.6g\n" name v) alt;
      print_table "[end-to-end]" e2e;
      let reported = if trace then layer else e2e in
      if trace then begin
        print_table "[per-layer]" layer;
        let path =
          Filename.concat Hostinfo.scratch_root (Printf.sprintf "spans-%s-%d.json" workload seed)
        in
        print_spans ~timed_wall path
      end;
      let missing = List.filter (fun (m : M.metric) -> Float.is_nan m.M.value) reported in
      List.iter (fun (m : M.metric) -> M.check_failed "metric %s was not measured" m.M.name) missing;
      let correct = !M.check_failures = [] in
      let reported = List.filter (fun (m : M.metric) -> not (Float.is_nan m.M.value)) reported in
      print_endline (result_line ~correct reported);
      if correct then 0 else 1)

let usage () =
  prerr_endline
    "usage: perfbench --workload (sim_suite|dse_sweep|served_mix) --seed N --seconds S --trace (0|1) \
     --daemon PATH [--commit ID]";
  exit 2

let () =
  (match Sys.argv with
  | [| _; "--set-up"; dir; daemon |] -> serve_set_up ~dir ~daemon
  | _ -> ());
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %s (expected one of: %s)\n" workload (String.concat ", " workloads);
    exit 2
  end;
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let commit = Option.value ~default:"none" (Hashtbl.find_opt args "commit") in
  exit (run ~workload ~seed:(int "seed") ~seconds ~trace ~exe:(get "daemon") ~commit)
