(* Spans recorded around the benchmark's calls into each layer.

   Off by default: [with_] then just runs its body. When enabled, every
   span keeps its name, start, end, the thread it ran on and the span
   that was open on that thread when it started (or an explicit parent,
   for spans opened on a thread the parent spawned). Spans stay in
   memory until [write_chrome] and [self_times] read them at the end of
   the run. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root *)
  tid : int;
  t0 : float;
  t1 : float;
  args : (string * string) list;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 1
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let current () =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt stacks (Thread.id (Thread.self ())) with
      | Some (id :: _) -> id
      | Some [] | None -> 0)

let with_ ?parent ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, stack, parent =
      Mutex.protect lock (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let parent =
            match (parent, stack) with
            | Some p, _ -> p
            | None, p :: _ -> p
            | None, [] -> 0
          in
          Hashtbl.replace stacks tid (id :: stack);
          (id, stack, parent))
    in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      Mutex.protect lock (fun () ->
          recorded := { id; name; parent; tid; t0; t1; args } :: !recorded;
          Hashtbl.replace stacks tid stack)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let all () = List.rev !recorded

(* Length of the union of [(a, b)] intervals clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if cb < 0.0 then (total, (a, b))
        else if a <= cb then (total, (ca, max cb b))
        else (total +. (cb -. ca), (a, b)))
      (0.0, (0.0, -1.0))
      ivs
  in
  let ca, cb = last in
  if cb < 0.0 then total else total +. (cb -. ca)

(* Parent id -> child spans. *)
let index spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let siblings = Option.value ~default:[] (Hashtbl.find_opt tbl s.parent) in
      Hashtbl.replace tbl s.parent (s :: siblings))
    spans;
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

(* Share of [s]'s duration that its children cover. *)
let coverage children s =
  let d = s.t1 -. s.t0 in
  if d <= 0.0 then 1.0
  else covered ~lo:s.t0 ~hi:s.t1 (List.map (fun c -> (c.t0, c.t1)) (children s.id)) /. d

(* Per span name: (name, count, total seconds, self seconds), where a
   span's self time is its duration minus the part of it its children
   cover. Sorted by self time, largest first. *)
let self_times spans =
  let children = index spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d *. (1.0 -. coverage children s) in
      let n, tot, slf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, tot +. d, slf +. self))
    spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span), the format Perfetto opens beside salam_trace output. *)
let write_chrome path spans =
  let origin = List.fold_left (fun acc s -> min acc s.t0) infinity spans in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          let args =
            ("id", string_of_int s.id) :: ("parent", string_of_int s.parent) :: s.args
            |> List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v)
            |> String.concat ","
          in
          Printf.fprintf oc
            "%s{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}\n"
            (if i = 0 then "" else ",")
            (json_string s.name) s.tid
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            args)
        spans;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
