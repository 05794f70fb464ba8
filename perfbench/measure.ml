(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stat.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [||] -> invalid_arg "Stat.percentile: no samples"
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stat.geomean: no samples"
  | _ ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

(* Run [round] once, then again while one more round as long as the
   last still fits in [budget] seconds; [after_first] runs once, after
   the first round. Returns the number of rounds. *)
let rounds ?(after_first = ignore) ~budget round =
  let start = Unix.gettimeofday () in
  let rec go n last =
    if n > 0 && Unix.gettimeofday () -. start +. last > budget then n
    else begin
      let t0 = Unix.gettimeofday () in
      round n;
      let dt = Unix.gettimeofday () -. t0 in
      if n = 0 then after_first ();
      go (n + 1) dt
    end
  in
  go 0 0.0

(* Operations attempted and failed, and correctness-check failures,
   over the whole run. Client threads update them concurrently. *)
let lock = Mutex.create ()
let attempted = ref 0
let failed = ref 0
let check_failures : string list ref = ref []

let attempt ok = Mutex.protect lock (fun () -> incr attempted; if not ok then incr failed)

let check_failed fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("[check] FAILED: " ^ msg);
      Mutex.protect lock (fun () -> check_failures := msg :: !check_failures))
    fmt

(* Process CPU seconds, user plus system, all threads. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* When an operation started, and how long it took by the wall clock and
   in process CPU time. *)
type time = { start : float; wall : float; cpu : float }

(* Run one timed operation: its result and times, or [None] (counted as
   a failed operation) when it raises. *)
let timed ~what f =
  let t0 = Unix.gettimeofday () and c0 = cpu_now () in
  match f () with
  | v ->
      let cpu = cpu_now () -. c0 in
      let wall = Unix.gettimeofday () -. t0 in
      attempt true;
      Some (v, { start = t0; wall; cpu })
  | exception e ->
      attempt false;
      prerr_endline (Printf.sprintf "[op] %s raised %s" what (Printexc.to_string e));
      None

(* Host speed. The benchmark shares a 2-core virtual host with other
   tenants. Its speed changes by up to 1.8x in phases that outlast a run,
   in two ways: the hypervisor takes the virtual CPUs away (steal time,
   which Linux leaves out of a process's CPU time), and the neighbours
   slow every instruction while the CPU is ours (which CPU time keeps).

   So single-threaded work is timed in process CPU time, and the
   benchmark times a fixed reference computation between its operations
   — hashing, list allocation, sorting and float formatting, none of it
   the program's code. Every time it reports is scaled to a host on
   which one reference unit takes [nominal] seconds, by the median of the
   9 reference samples nearest in time.

   A sample allocates only in the minor heap, which is emptied before
   it: its table, array and buffer are made once, outside the timing.
   So no collection runs during a sample, and neither the size of the
   program's major heap nor the GC settings it makes can move the
   reference: a slowdown of the program shows in full. *)
type scratch = { table : (int, float list) Hashtbl.t; keys : int array; text : Buffer.t }

let scratch units =
  { table = Hashtbl.create 1024; keys = Array.make (100 * units) 0; text = Buffer.create (200 * units) }

let work s =
  let units = Array.length s.keys / 100 in
  Hashtbl.clear s.table;
  Buffer.clear s.text;
  let acc = ref 0.0 in
  for i = 0 to (125 * units) - 1 do
    let k = i land 1023 in
    let l = float_of_int i :: Option.value ~default:[] (Hashtbl.find_opt s.table k) in
    Hashtbl.replace s.table k (if List.length l > 8 then [] else l);
    acc := !acc +. sqrt (float_of_int i)
  done;
  Array.iteri (fun i _ -> s.keys.(i) <- (i * 7919) land 65535) s.keys;
  Array.sort compare s.keys;
  for i = 0 to (40 * units) - 1 do
    Buffer.add_string s.text (string_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let reference_units = 80
let nominal = 0.004
let ref_scratch = lazy (scratch reference_units)
let ref_log : time list ref = ref []

(* Reference samples during which a collection ran after all. *)
let ref_collections = ref 0

(* Work the benchmark spreads over the run, between its operations:
   called before every reference sample. *)
let between = ref ignore

(* Take a reference sample, unless one was taken in the last [min_gap]
   seconds: samples bunched between short operations would stand for
   the whole window around a long one. The minor heap is emptied first,
   untimed, so that the sample does not pay for the previous operation's
   garbage. *)
let min_gap = 0.1

let reference () =
  match !ref_log with
  | last :: _ when Unix.gettimeofday () -. last.start < min_gap -> ()
  | _ ->
      !between ();
      let s = Lazy.force ref_scratch in
      Gc.minor ();
      let gc0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () and c0 = cpu_now () in
      work s;
      let cpu = cpu_now () -. c0 in
      let gc1 = Gc.quick_stat () in
      if gc1.Gc.minor_collections <> gc0.Gc.minor_collections || gc1.Gc.major_collections <> gc0.Gc.major_collections
      then incr ref_collections;
      ref_log := { start = t0; wall = Unix.gettimeofday () -. t0; cpu } :: !ref_log

(* [nearest samples ~nominal t]: the median of the 9 samples (start,
   seconds) nearest [t], over [nominal]. *)
let nearest samples ~nominal =
  let a = Array.of_list (List.sort compare samples) in
  let n = Array.length a in
  if n = 0 then failwith "no host-speed samples";
  fun t ->
    let rec first lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst a.(mid) < t then first (mid + 1) hi else first lo mid
    in
    let lo = max 0 (min (first 0 n - 4) (n - 9)) in
    let hi = min n (lo + 9) in
    median (List.init (hi - lo) (fun k -> snd a.(lo + k))) /. nominal

type clock = Wall | Cpu

let pick clock (t : time) = match clock with Wall -> t.wall | Cpu -> t.cpu

(* Scale a time to the nominal host, by the reference samples taken so
   far: read it once the samples after the last operation exist. *)
let scaler clock =
  let slowdown = nearest (List.map (fun r -> (r.start, pick clock r)) !ref_log) ~nominal in
  fun (t : time) -> pick clock t /. slowdown t.start

(* Time [f] over [reps] batches of [batch] calls, a reference sample
   before each batch; median seconds per call at nominal host speed.
   Batching lifts short calls above the clock's resolution. *)
let per_call ?(clock = Cpu) ?(reps = 15) ?(batch = 1) f =
  let samples =
    List.init reps (fun _ ->
        reference ();
        let t0 = Unix.gettimeofday () and c0 = cpu_now () in
        for _ = 1 to batch do
          f ()
        done;
        let cpu = cpu_now () -. c0 in
        let b = float_of_int batch in
        { start = t0; wall = (Unix.gettimeofday () -. t0) /. b; cpu = cpu /. b })
  in
  let scale = scaler clock in
  median (List.map scale samples)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }
