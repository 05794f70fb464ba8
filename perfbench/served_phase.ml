(* served_mix: the shipped [salam_served serve] daemon in its own process
   (one worker domain, a fresh sharded store), driven over two
   connections in a closed loop.

   Cold phase: both connections ask [sim] for every point of the served
   space, in opposite seeded orders, so each point is simulated once and
   its second asker gets a hit or a dedup. Hit phase: for the rest of the
   budget each connection asks [sim] for seeded random stored points. *)

module M = Measure
module E = Salam_dse.Explore
module Space = Salam_dse.Space
module Point = Salam_dse.Point
module Ms = Salam_dse.Measurement
module P = Salam_served.Protocol
module Client = Salam_served.Client

let gemm_n = 8
let spec = { P.default_spec with P.gemm_n }
let target = E.gemm_target ~n:gemm_n ()

(* 4 FU budgets x 5 port counts x 3 unroll factors: 60 points, all of
   them served in every run, so the cold work does not depend on the
   seed. *)
let space =
  Space.create ~derive:Space.spm_balanced
    [ Space.Fu_limit [ 1; 2; 4; 0 ]; Space.Read_ports [ 1; 2; 4; 8; 16 ]; Space.Unroll [ 1; 2; 4 ] ]

let points ~seed =
  let arr = Array.of_list (Space.enumerate space) in
  Salam_sim.Rng.shuffle (Salam_sim.Rng.create (Int64.of_int seed)) arr;
  arr

type daemon = { pid : int; socket : string; store_dir : string; out : Unix.file_descr }

(* Spawn [salam_served serve] and wait until it prints that it listens,
   then until it answers a ping. Its stdout stays open until it stops. *)
let start_daemon ~exe ~dir =
  let socket = Filename.concat dir "served.sock" and store_dir = Filename.concat dir "store" in
  let log = Unix.openfile (Filename.concat dir "served.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let out, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--store"; store_dir; "--workers"; "1" |]
      Unix.stdin out_w log
  in
  Unix.close log;
  Unix.close out_w;
  let d = { pid; socket; store_dir; out } in
  let fail what =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close out;
    failwith ("salam_served " ^ what ^ "; see " ^ Filename.concat dir "served.log")
  in
  let buf = Bytes.create 4096 and seen = Buffer.create 256 in
  let rec wait_listening () =
    match Unix.select [ out ] [] [] 60.0 with
    | [], _, _ -> fail "did not start listening within 60 s"
    | _ ->
        let k = Unix.read out buf 0 (Bytes.length buf) in
        if k = 0 then fail "exited before listening";
        Buffer.add_subbytes seen buf 0 k;
        let text = Buffer.contents seen in
        let key = "[served] listening" in
        let rec has i =
          i + String.length key <= String.length text
          && (String.sub text i (String.length key) = key || has (i + 1))
        in
        if not (has 0) then wait_listening ()
  in
  wait_listening ();
  (match Client.with_connection socket Client.ping with
  | () -> ()
  | exception Client.Protocol_error e -> fail ("did not answer a ping: " ^ e));
  d

let stop_daemon d =
  (try Client.with_connection d.socket Client.shutdown with Client.Protocol_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  Unix.close d.out

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  try Unix.close d.out with Unix.Unix_error _ -> ()

(* One connection: its client, its random stream for the hit phase,
   and per point the first measurement it was given; a later answer for
   the same point that differs counts in [changed]. *)
type conn = {
  client : Client.t;
  rng : Random.State.t;
  firsts : (int, Ms.t) Hashtbl.t;
  mutable changed : int;
}

(* Ask for points from [next] (an index into [pts], or None to stop)
   in a new thread, handing each answer's served tag and latency to
   [on_answer]; the returned function joins the thread. *)
let ask_thread ~parent pts conn next on_answer =
  let body () =
    Span.with_ ~parent "served.conn" (fun () ->
        let rec loop () =
          match next () with
          | None -> ()
          | Some index ->
              (match
                 M.timed ~what:"served sim" (fun () ->
                     Span.with_ "served.client_sim" (fun () -> Client.sim conn.client ~spec pts.(index)))
               with
              | Some ((served, m), time) -> (
                  on_answer served time.M.wall;
                  match Hashtbl.find_opt conn.firsts index with
                  | None -> Hashtbl.add conn.firsts index m
                  | Some first -> if first <> m then conn.changed <- conn.changed + 1)
              | None -> ());
              loop ()
        in
        loop ())
  in
  let th = Thread.create body () in
  fun () -> Thread.join th

let of_list xs =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let pct p l = if l = [] then nan else M.percentile p l

(* What requests cost the host: the CPU seconds the daemon and the
   benchmark process (its two client threads) spent on them, how many
   there were, and when (for the host-speed scaling). CPU time leaves
   out what the hypervisor stole, which the client's latencies cannot:
   a request that meets a stolen CPU waits milliseconds. *)
type cost = { at : float; cpu : float; requests : int }

(* One hit slice: how long it took, its latencies and its cost. *)
type slice = { s_seconds : float; s_p50 : float; s_p90 : float; s_cost : cost }

type summary = {
  e2e : M.metric list;
  alt : (string * float) list;  (** the client's latencies and rate, wall time *)
  layer : M.metric list;
  daemon_rss_mb : float;  (** median over the round daemons *)
  slices : int;
}

type evidence = { pts : Point.t array; conns : conn list }

(* Each round starts a daemon on a fresh store. Its hit phase runs in
   slices of [slice_seconds], at least [min_slices] of them, and between
   slices, with both connections idle, the benchmark takes its
   host-speed samples. *)
let rounds = 3
let min_slices = 6
let slice_seconds = 0.25

let run ~budget ~seed ~exe ~dir (daemon : daemon option ref) =
  let pts = points ~seed in
  let n = Array.length pts in
  let start = Unix.gettimeofday () in
  (* per round: its cold answers and the p50 of those served [sim] *)
  let colds = ref [] and slices = ref [] and cold_costs = ref [] in
  let stats = ref [] and rss = ref [] and conns = ref [] in
  let connect () =
    let d = Option.get !daemon in
    Array.init 2 (fun k ->
        let c =
          {
            client = Client.connect d.socket;
            rng = Random.State.make [| seed; k |];
            firsts = Hashtbl.create 64;
            changed = 0;
          }
        in
        conns := c :: !conns;
        c)
  in
  let round r =
    Option.iter stop_daemon !daemon;
    daemon := None;
    let rdir = Filename.concat dir (Printf.sprintf "served-%d" r) in
    Sys.mkdir rdir 0o755;
    let d = start_daemon ~exe ~dir:rdir in
    daemon := Some d;
    let daemon_cpu () = Hostinfo.process_cpu d.pid in
    let cs = connect () in
    Fun.protect
      ~finally:(fun () -> Array.iter (fun c -> Client.close c.client) cs)
      (fun () ->
        M.reference ();
        Span.with_ "served.cold" (fun () ->
            let parent = Span.current () in
            let t0 = Unix.gettimeofday () and c0 = M.cpu_now () and d0 = daemon_cpu () in
            let got = Array.make 2 [] in
            let fwd = List.init n Fun.id in
            let joins =
              List.mapi
                (fun k order ->
                  ask_thread ~parent pts cs.(k) (of_list order) (fun served latency ->
                      got.(k) <- (served, latency) :: got.(k)))
                [ fwd; List.rev fwd ]
            in
            List.iter (fun join -> join ()) joins;
            let cpu = M.cpu_now () -. c0 +. (daemon_cpu () -. d0) in
            cold_costs := { at = (t0 +. Unix.gettimeofday ()) /. 2.0; cpu; requests = n } :: !cold_costs;
            let answers = got.(0) @ got.(1) in
            let sims = List.filter_map (fun (served, l) -> if served = "sim" then Some l else None) answers in
            colds := (List.length answers, pct 0.5 sims) :: !colds);
        let round_end = start +. (budget *. float_of_int (r + 1) /. float_of_int rounds) in
        Span.with_ "served.hits" (fun () ->
            let parent = Span.current () in
            let first = List.length !slices in
            while Unix.gettimeofday () < round_end || List.length !slices - first < min_slices do
              M.reference ();
              let s0 = Unix.gettimeofday () and c0 = M.cpu_now () and d0 = daemon_cpu () in
              let deadline = s0 +. slice_seconds in
              let got = Array.make 2 [] in
              let joins =
                List.init 2 (fun k ->
                    ask_thread ~parent pts cs.(k)
                      (fun () ->
                        if Unix.gettimeofday () >= deadline then None
                        else Some (Random.State.int cs.(k).rng n))
                      (fun served latency ->
                        if served = "hit" then got.(k) <- latency :: got.(k)
                        else M.check_failed "served: hit phase answered %s" served))
              in
              List.iter (fun join -> join ()) joins;
              let cpu = M.cpu_now () -. c0 +. (daemon_cpu () -. d0) in
              let s1 = Unix.gettimeofday () in
              let lat = got.(0) @ got.(1) in
              slices :=
                {
                  s_seconds = s1 -. s0;
                  s_p50 = pct 0.5 lat;
                  s_p90 = pct 0.9 lat;
                  s_cost = { at = (s0 +. s1) /. 2.0; cpu; requests = List.length lat };
                }
                :: !slices
            done);
        stats := Client.with_connection d.socket Client.stats :: !stats;
        rss := Hostinfo.peak_rss_mb (string_of_int d.pid) :: !rss)
  in
  Span.with_ "phase.served_mix" (fun () ->
      for r = 0 to rounds - 1 do
        round r
      done);
  M.reference ();
  (* CPU seconds per request, scaled to the nominal host: median over
     the hit slices (the daemon's CPU time comes in 10 ms ticks, about
     a tenth of a slice's), and over the rounds' cold phases *)
  let scale = M.scaler M.Cpu in
  let per_request ?(scale = scale) costs =
    M.median
      (List.map (fun c -> scale { M.start = c.at; wall = 0.0; cpu = c.cpu } /. float_of_int c.requests) costs)
  in
  let unscaled = M.pick M.Cpu in
  let over_slices f = M.median (List.map f !slices) in
  let hit_costs = List.map (fun sl -> sl.s_cost) !slices in
  let cold_answers = List.fold_left (fun acc (k, _) -> acc + k) 0 !colds in
  List.iter
    (fun (st : P.server_stats) ->
      if st.P.st_misses <> n then M.check_failed "served: %d misses for %d distinct points" st.P.st_misses n;
      if st.P.st_simulated <> n then
        M.check_failed "served: %d simulations for %d distinct points" st.P.st_simulated n)
    !stats;
  if cold_answers <> 2 * n * rounds then
    M.check_failed "served: %d cold answers, expected %d" cold_answers (2 * n * rounds);
  let total f = float_of_int (List.fold_left (fun acc st -> acc + f st) 0 !stats) in
  ( {
      slices = List.length !slices;
      daemon_rss_mb = M.median !rss;
      e2e =
        [
          M.metric "served_hit_cpu_us" "us" (per_request hit_costs *. 1e6);
          M.metric "served_sim_cpu_ms" "ms" (per_request !cold_costs *. 1e3);
        ];
      (* as the client sees them: each slice's p50, p90 and rate, median
         over the slices; each round's p50 of cold requests answered
         [sim], median over the rounds. And the CPU costs unscaled. *)
      alt =
        [
          ("served_hit_p50_us", over_slices (fun sl -> sl.s_p50 *. 1e6));
          ("served_hit_p90_us", over_slices (fun sl -> sl.s_p90 *. 1e6));
          ("served_hit_req_per_s", over_slices (fun sl -> float_of_int sl.s_cost.requests /. sl.s_seconds));
          ("served_sim_p50_ms", M.median (List.map (fun (_, p50) -> p50 *. 1e3) !colds));
          ("served_hit_cpu_us.unscaled", per_request ~scale:unscaled hit_costs *. 1e6);
          ("served_sim_cpu_ms.unscaled", per_request ~scale:unscaled !cold_costs *. 1e3);
        ];
      layer =
        [
          M.metric "served.hits" "count" (total (fun st -> st.P.st_hits));
          M.metric "served.misses" "count" (total (fun st -> st.P.st_misses));
          M.metric "served.deduped" "count" (total (fun st -> st.P.st_deduped));
          M.metric "served.simulated" "count" (total (fun st -> st.P.st_simulated));
        ];
    },
    { pts; conns = !conns } )

(* Every answer must equal, byte for byte, the measurement of a local
   [Salam.simulate] of the same point. Each connection already checked
   that its answers for one point never changed; here its first answer
   per point meets the local simulation. *)
let check ev =
  Span.with_ "check.served_vs_local" (fun () ->
      let local = Hashtbl.create 64 in
      let expected index =
        match Hashtbl.find_opt local index with
        | Some l -> l
        | None ->
            let p = Point.canonical ev.pts.(index) in
            let workload =
              E.identity ~workload:(target.E.workload_id p) ~invocations:1 ~fast_forward:None
            in
            let r = Salam.simulate ~config:(Point.to_config p) (target.E.build p) in
            let l = Ms.to_line (Ms.of_result ~workload ~point:p r) in
            Hashtbl.add local index l;
            l
      in
      List.iter
        (fun c ->
          if c.changed > 0 then
            M.check_failed "served: %d answers differ from an earlier answer for the same point" c.changed;
          Hashtbl.iter
            (fun index m ->
              if Ms.to_line m <> expected index then
                M.check_failed "served: answer for %s differs from the local simulation"
                  (Point.to_string ev.pts.(index)))
            c.firsts)
        ev.conns)

(* Layer timings only the traced run takes: the socket round trip, the
   line codec on this workload's request and a hit reply, and the
   daemon's shard lookup (on the store it left behind). *)
let layer_probes (d : daemon) ev =
  let c = List.find (fun c -> Hashtbl.length c.firsts > 0) ev.conns in
  let index, m = Hashtbl.fold (fun index m _ -> Some (index, m)) c.firsts None |> Option.get in
  let p = ev.pts.(index) in
  let ping_us =
    Span.with_ "served.ping" (fun () ->
        (* a round trip waits on the daemon: wall time *)
        Client.with_connection d.socket (fun c ->
            M.per_call ~clock:M.Wall ~reps:25 ~batch:8 (fun () -> Client.ping c)))
    *. 1e6
  in
  let req = P.Sim (spec, p) in
  let req_line = P.encode_request ~id:7L req in
  let resp = P.Result { served = "hit"; m } in
  let resp_line = P.encode_response ~id:7L resp in
  let codec name f = Span.with_ name (fun () -> M.per_call ~reps:25 ~batch:20 f) *. 1e6 in
  [
    M.metric "served.ping_rtt_us" "us" ping_us;
    M.metric "served.request_encode_us" "us"
      (codec "served.request_encode" (fun () -> ignore (P.encode_request ~id:7L req)));
    M.metric "served.request_decode_us" "us"
      (codec "served.request_decode" (fun () -> ignore (P.decode_request req_line)));
    M.metric "served.response_encode_us" "us"
      (codec "served.response_encode" (fun () -> ignore (P.encode_response ~id:7L resp)));
    M.metric "served.response_decode_us" "us"
      (codec "served.response_decode" (fun () -> ignore (P.decode_response resp_line)));
  ]

let store_find_ns (d : daemon) ev =
  let store = Salam_dse.Store_shard.open_ d.store_dir in
  let fps =
    List.concat_map (fun c -> Hashtbl.fold (fun _ (m : Ms.t) acc -> m.Ms.fp :: acc) c.firsts []) ev.conns
    |> List.sort_uniq compare
  in
  let ns =
    Span.with_ "served.store_find" (fun () ->
        M.per_call ~reps:25 ~batch:20 (fun () ->
            List.iter (fun fp -> ignore (Salam_dse.Store_shard.find store ~fp)) fps))
    /. float_of_int (List.length fps)
    *. 1e9
  in
  Salam_dse.Store_shard.close store;
  M.metric "served.store_find_ns" "ns" ns
