(* dse_sweep: salam_dse as users run it — [Explore.run] on one domain
   against a file-backed store — over the Fig 13 gemm16 space.

   One round is a cold sweep into a fresh store and a fast-forward
   sweep into another fresh store. Warm re-sweeps, each of which reopens
   the first round's cold store from disk, run between their parts. *)

module M = Measure
module E = Salam_dse.Explore
module Space = Salam_dse.Space
module Point = Salam_dse.Point
module Store = Salam_dse.Store
module Ms = Salam_dse.Measurement

let base = { Point.default with Point.unroll = 16; junroll = 8 }

let fu_budgets = [ 2; 4; 8; 0 ]
let cache_space = Space.create ~base [ Space.Memory [ Point.Cache ]; Space.Cache_bytes [ 512; 2048; 8192 ] ]

(* Fig 13: the SPM cloud (FU budget x bandwidth) plus the cache
   capacities — 23 points. *)
let spaces =
  [
    Space.create ~base ~derive:Space.spm_balanced
      [ Space.Fu_limit fu_budgets; Space.Read_ports [ 1; 2; 4; 8; 16 ] ];
    cache_space;
  ]

(* The same 23 points as five sweeps — one per FU budget, then the cache
   capacities — as a user sweeps a space row by row. Cold and
   fast-forward sweeps run this way, so that the host-speed samples
   between the parts are at most a fifth of a sweep apart. *)
let parts =
  List.map
    (fun fu ->
      [ Space.create ~base ~derive:Space.spm_balanced [ Space.Fu_limit [ fu ]; Space.Read_ports [ 1; 2; 4; 8; 16 ] ] ])
    fu_budgets
  @ [ [ cache_space ] ]

let target = E.gemm_target ~n:16 ()
let roadmark = 2
let invocations = 3
let warm_per_part = 3

(* The sample is the whole space in seed order, so every seed does the
   same work: the 512 B cache point costs about three times the
   cheapest SPM point, and a partial sample would make the cold rate
   depend on which points the seed drew. *)
let strategy ~seed = E.Random { samples = max_int; seed = Int64.of_int seed }

let sweep ?fast_forward ?invocations ~seed store spaces =
  Span.with_ "dse.explore_run" (fun () ->
      E.run ~store ~domains:1 ?fast_forward ?invocations ~target ~strategy:(strategy ~seed) spaces)

(* A sweep in [parts], each part one timed operation and followed by
   [after_part]: the parts' reports and times, or None when a part
   raised. *)
let sweep_parts ~what ?fast_forward ?invocations ~after_part ~seed store =
  let results =
    List.map
      (fun part ->
        M.reference ();
        let r = M.timed ~what (fun () -> sweep ?fast_forward ?invocations ~seed store part) in
        after_part ();
        r)
      parts
  in
  if List.mem None results then None else Some (List.filter_map Fun.id results)

let opened path f =
  let store = Span.with_ "dse.store_open" (fun () -> Store.open_ path) in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

type summary = {
  e2e : M.metric list;
  alt : (string * float) list;  (** readings without some of the noise handling *)
  layer : M.metric list;
  full : E.report option;  (** the first warm sweep: all 23 points in one report *)
  rounds : int;
}

let line (m : Ms.t) = Ms.to_line m

(* Dominance over (simulated time, power, area), all minimised —
   recomputed here rather than taken from [Pareto]. *)
let dominates (a : Ms.t) (b : Ms.t) =
  let le = a.Ms.seconds <= b.Ms.seconds && a.Ms.total_mw <= b.Ms.total_mw && a.Ms.area_um2 <= b.Ms.area_um2 in
  let lt = a.Ms.seconds < b.Ms.seconds || a.Ms.total_mw < b.Ms.total_mw || a.Ms.area_um2 < b.Ms.area_um2 in
  le && lt

let check_front (r : E.report) =
  let all = r.E.measurements in
  List.iter
    (fun f ->
      if List.exists (fun m -> dominates m f) all then
        M.check_failed "dse: front point %s is dominated" (Point.to_string f.Ms.point))
    r.E.front;
  List.iter
    (fun d ->
      if d.Ms.correct && not (List.exists (fun f -> dominates f d) r.E.front) then
        M.check_failed "dse: dominated point %s is dominated by no front point"
          (Point.to_string d.Ms.point))
    r.E.dominated;
  if List.length r.E.front + List.length r.E.dominated <> List.length all then
    M.check_failed "dse: front and dominated do not partition the measurements"

let run ?after_first ~budget ~seed ~dir () =
  let n = ref 0 in
  let fresh prefix =
    incr n;
    let p = Filename.concat dir (Printf.sprintf "%s-%d.jsonl" prefix !n) in
    if Sys.file_exists p then Sys.remove p;
    p
  in
  (* (times, points) per sweep; rates are taken at the end, once the
     reference samples around every sweep exist *)
  let cold_rates = ref [] and warm_rates = ref [] and ff_rates = ref [] in
  let cold_ref = ref None and warm_words = ref nan and warm_ref = ref None and ff_ref = ref None in
  let measurements parts = List.concat_map (fun ((r : E.report), _) -> r.E.measurements) parts in
  let sum f parts = List.fold_left (fun acc ((r : E.report), _) -> acc + f r) 0 parts in
  let check_correct what ms =
    List.iter
      (fun (m : Ms.t) ->
        if not m.Ms.correct then M.check_failed "dse: %s %s computed a wrong result" what (Point.to_string m.Ms.point))
      ms
  in
  (* The first complete cold store is kept for the whole phase, and
     [warm_per_part] warm re-sweeps of it follow every part of the later
     cold and fast-forward sweeps: the warm samples, 2 ms each, are
     spread over the phase instead of coming from one moment per round. *)
  let kept = ref None in
  let warm () =
    match !kept with
    | None -> ()
    | Some (path, by_fp) ->
        for _ = 1 to warm_per_part do
          M.reference ();
          let w0 = Gc.minor_words () in
          match
            M.timed ~what:"dse warm sweep" (fun () ->
                Span.with_ "dse.warm_sweep" (fun () -> opened path (fun store -> sweep ~seed store spaces)))
          with
          | None -> ()
          | Some (w, time) ->
              let w1 = Gc.minor_words () in
              warm_rates := [ (w, time) ] :: !warm_rates;
              if Float.is_nan !warm_words then warm_words := (w1 -. w0) /. float_of_int w.E.evaluated;
              if w.E.simulated <> 0 then M.check_failed "dse: warm sweep simulated %d points" w.E.simulated;
              if w.E.evaluated <> 23 || w.E.cache_hits <> 23 then
                M.check_failed "dse: warm sweep evaluated %d points, %d from the store, of 23" w.E.evaluated
                  w.E.cache_hits;
              if List.exists (fun (m : Ms.t) -> Hashtbl.find_opt by_fp m.Ms.fp <> Some (line m)) w.E.measurements
              then M.check_failed "dse: warm answers differ from the cold sweep's";
              if !warm_ref = None then begin
                warm_ref := Some w;
                check_front w
              end
        done
  in
  let round _ =
    let cold_path = fresh "cold" in
    (match
       Span.with_ "dse.cold_sweep" (fun () ->
           opened cold_path (fun store -> sweep_parts ~what:"dse cold sweep" ~after_part:warm ~seed store))
     with
    | None -> Sys.remove cold_path
    | Some parts ->
        cold_rates := parts :: !cold_rates;
        let ms = measurements parts in
        let simulated = sum (fun r -> r.E.simulated) parts in
        if simulated <> 23 then M.check_failed "dse: cold sweep simulated %d of 23 points" simulated;
        check_correct "cold" ms;
        let lines = List.sort compare (List.map line ms) in
        (match !cold_ref with
        | None -> cold_ref := Some (parts, lines)
        | Some (_, first) -> if first <> lines then M.check_failed "dse: a repeated cold sweep measured differently");
        if !kept = None then begin
          let by_fp = Hashtbl.create 32 in
          List.iter (fun (m : Ms.t) -> Hashtbl.replace by_fp m.Ms.fp (line m)) ms;
          kept := Some (cold_path, by_fp);
          warm ()
        end
        else Sys.remove cold_path);
    let ff_path = fresh "ff" in
    (match
       Span.with_ "dse.ff_sweep" (fun () ->
           opened ff_path (fun store ->
               sweep_parts ~what:"dse fast-forward sweep" ~fast_forward:roadmark ~invocations ~after_part:warm
                 ~seed store))
     with
    | None -> ()
    | Some parts ->
        ff_rates := parts :: !ff_rates;
        check_correct "fast-forwarded" (measurements parts);
        if !ff_ref = None then ff_ref := Some parts);
    M.reference ();
    Sys.remove ff_path
  in
  let rounds = Span.with_ "phase.dse_sweep" (fun () -> M.rounds ?after_first ~budget round) in
  Option.iter (fun (path, _) -> Sys.remove path) !kept;
  let cpu = M.scaler M.Cpu in
  (* points per second of each sweep: its points over its parts' times *)
  let med ?(scale = cpu) sweeps =
    if sweeps = [] then nan
    else
      M.median
        (List.map
           (fun parts ->
             float_of_int (sum (fun r -> r.E.evaluated) parts)
             /. List.fold_left (fun acc (_, t) -> acc +. scale t) 0.0 parts)
           sweeps)
  in
  let count f = function Some parts -> float_of_int (sum f parts) | None -> nan in
  {
    rounds;
    full = !warm_ref;
    alt =
      List.concat_map
        (fun (name, sweeps) ->
          [
            (name ^ ".unscaled_cpu", med ~scale:(M.pick M.Cpu) sweeps);
            (name ^ ".unscaled_wall", med ~scale:(M.pick M.Wall) sweeps);
          ])
        [ ("dse_cold_points_per_s", !cold_rates); ("dse_warm_points_per_s", !warm_rates); ("dse_ff_points_per_s", !ff_rates) ];
    e2e =
      [
        M.metric "dse_cold_points_per_s" "1/s" (med !cold_rates);
        M.metric "dse_warm_points_per_s" "1/s" (med !warm_rates);
        M.metric "dse_warm_minor_words_per_point" "words" !warm_words;
        M.metric "dse_ff_points_per_s" "1/s" (med !ff_rates);
      ];
    layer =
      [
        M.metric "dse.cache_hits" "count" (count (fun r -> r.E.cache_hits) (Option.map (fun w -> [ (w, ()) ]) !warm_ref));
        M.metric "dse.simulated" "count" (count (fun r -> r.E.simulated) (Option.map fst !cold_ref));
        M.metric "dse.snapshots" "count" (count (fun r -> r.E.snapshots) !ff_ref);
      ];
  }

(* At least one fast-forwarded gemm16 point must pass the snapshot
   oracle (uninterrupted vs capture-restore vs warm-up-restore). *)
let check () =
  Span.with_ "check.snapshot" (fun () ->
      match
        Check_snapshot.check_fast_forward ~roadmark ~invocations (target.E.build base)
      with
      | Ok () -> ()
      | Error e -> M.check_failed "dse: snapshot oracle: %s" e)

(* Layer timings only the traced run takes, over the cold sweep's
   measurements. *)
let layer_probes ~dir (full : E.report option) =
  match full with
  | None -> []
  | Some r ->
      let ms = r.E.measurements in
      let lines = List.map line ms in
      let each f xs () = List.iter (fun x -> ignore (f x)) xs in
      let per_item f xs = M.per_call ~batch:20 (each f xs) /. float_of_int (List.length xs) in
      let append_us =
        Span.with_ "dse.store_append" (fun () ->
            let path = Filename.concat dir "append.jsonl" in
            M.median
              (List.init 5 (fun _ ->
                   if Sys.file_exists path then Sys.remove path;
                   let store = Store.open_ path in
                   let t0 = Unix.gettimeofday () in
                   List.iter (Store.add store) ms;
                   let dt = Unix.gettimeofday () -. t0 in
                   Store.close store;
                   dt /. float_of_int (List.length ms))))
      in
      let open_ms =
        Span.with_ "dse.store_open" (fun () ->
            let path = Filename.concat dir "append.jsonl" in
            M.per_call ~reps:15 (fun () -> Store.close (Store.open_ path)))
      in
      let ids = List.map (fun (m : Ms.t) -> (m.Ms.workload, m.Ms.point)) ms in
      [
        M.metric "dse.enumerate_us" "us"
          (Span.with_ "dse.enumerate" (fun () -> M.per_call ~batch:20 (fun () -> ignore (Space.enumerate_all spaces)))
          *. 1e6);
        M.metric "dse.pareto_us" "us"
          (Span.with_ "dse.pareto" (fun () -> M.per_call ~batch:20 (fun () -> ignore (Salam_dse.Pareto.partition ms)))
          *. 1e6);
        M.metric "dse.store_open_ms" "ms" (open_ms *. 1e3);
        M.metric "dse.store_append_us" "us" (append_us *. 1e6);
        M.metric "dse.measurement_encode_us" "us"
          (Span.with_ "dse.measurement_encode" (fun () -> per_item Ms.to_line ms) *. 1e6);
        M.metric "dse.measurement_decode_us" "us"
          (Span.with_ "dse.measurement_decode" (fun () -> per_item Ms.of_line lines) *. 1e6);
        M.metric "dse.fingerprint_us" "us"
          (Span.with_ "dse.fingerprint" (fun () ->
               per_item (fun (workload, p) -> Point.fingerprint ~workload p) ids)
          *. 1e6);
      ]
