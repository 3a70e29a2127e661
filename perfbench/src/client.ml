(* The prbpd side of the benchmark: start and stop the daemon binary,
   speak HTTP/1.1 to it over loopback (one request per connection, as
   the daemon requires), and check every certificate it serves by
   replaying it through the literal rule checkers. *)

module Wire = Prbp.Wire

(* ------------------------------------------------------------------ *)
(* HTTP *)

type reply = { status : int; cache : string; body : string }

let header_value head name =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some j
        when String.lowercase_ascii (String.trim (String.sub line 0 j)) = name ->
          Some (String.trim (String.sub line (j + 1) (String.length line - j - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

let parse_reply raw =
  let rec find_sep i =
    if i + 4 > String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some i
    else find_sep (i + 1)
  in
  match find_sep 0 with
  | None -> Error "truncated reply"
  | Some i -> (
      let head = String.sub raw 0 i in
      let body = String.sub raw (i + 4) (String.length raw - i - 4) in
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> (
          match int_of_string_opt code with
          | Some status ->
              let cache = Option.value ~default:"-" (header_value head "x-prbpd-cache") in
              Ok { status; cache; body }
          | None -> Error "bad status line")
      | _ -> Error "bad status line")

let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

(* One exchange, timed from connect to the last byte of the reply. *)
let exchange ~port raw =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let t0 = Unix.gettimeofday () in
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        write_all fd raw 0;
        read_all fd
      with
      | got -> (Unix.gettimeofday () -. t0, parse_reply got)
      | exception Unix.Unix_error (e, _, _) ->
          (Unix.gettimeofday () -. t0, Error (Unix.error_message e)))

let post ~port path body =
  exchange ~port
    (Printf.sprintf "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
       path (String.length body) body)

let get ~port path =
  exchange ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path)

(* ------------------------------------------------------------------ *)
(* The daemon process *)

type daemon = { pid : int; port : int }

let live : daemon list ref = ref []

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let reap pid ~within =
  let t_end = Unix.gettimeofday () +. within in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < t_end ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  wait ()

let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (reap d.pid ~within:20.) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap d.pid ~within:5.)
  end

let () = at_exit (fun () -> List.iter stop !live)

(* Start [prbpd] on a free loopback port and wait until /healthz answers
   with this build's wire and bench schema. *)
let start ?max_deadline_ms ~prbpd ~workers () =
  let port = free_port () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| prbpd; "--port"; string_of_int port; "--workers"; string_of_int workers;
       "--queue"; string_of_int (4 * workers); "--cache"; "1024" |]
  in
  let argv =
    match max_deadline_ms with
    | Some ms -> Array.append argv [| "--max-deadline-ms"; string_of_int ms |]
    | None -> argv
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process prbpd argv devnull devnull Unix.stderr)
  in
  let d = { pid; port } in
  live := d :: !live;
  let t_end = Unix.gettimeofday () +. 30. in
  let rec ready () =
    match get ~port "/healthz" with
    | _, Ok { status = 200; body; _ } -> (
        match Wire.decode_healthz body with
        | Ok h when h.Wire.wire = Wire.version && h.Wire.bench = Wire.bench_schema -> Ok d
        | _ -> Error ("prbpd /healthz body failed the schema check: " ^ body))
    | _ when Unix.gettimeofday () > t_end -> Error "prbpd did not come up within 30 s"
    | _ -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            Unix.sleepf 0.01;
            ready ()
        | _ -> Error "prbpd exited during start-up"
        | exception Unix.Unix_error _ -> Error "prbpd exited during start-up")
  in
  match ready () with
  | Ok d -> Ok d
  | Error e ->
      stop d;
      Error e

let status ~port =
  match get ~port "/v1/status" with
  | _, Ok { status = 200; body; _ } -> Wire.decode_status body
  | _, Ok { status; _ } -> Error (Printf.sprintf "/v1/status answered %d" status)
  | _, Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Certificates *)

let replay ~r dag = function
  | Wire.Rbp_strategy moves -> Prbp.Verifier.R.check ~r dag moves
  | Wire.Prbp_strategy moves -> Prbp.Verifier.P.check ~r dag moves
  | Wire.Multi_rbp_strategy (p, moves) ->
      Prbp.Multi.R.check (Prbp.Multi.config ~p ~r ()) dag moves
  | Wire.Multi_prbp_strategy (p, moves) ->
      Prbp.Multi.P.check (Prbp.Multi.config ~p ~r ()) dag moves

let replays_to ~r dag strategy cost =
  match replay ~r dag strategy with
  | Ok c when c = cost -> Ok ()
  | Ok c -> Error (Printf.sprintf "certificate replays to %d, not the claimed %d" c cost)
  | Error e -> Error ("certificate rejected: " ^ e)

let ( let* ) = Result.bind

(* Is [body] a correct answer to [rq]?  Every strategy it carries must
   replay through the literal checker to the cost it claims. *)
let check_reply (rq : Wire.request) body =
  let dag = rq.Wire.dag in
  match rq.Wire.kind with
  | Wire.Solve -> (
      let* o = Wire.decode_outcome body in
      match (o.Wire.status, o.Wire.strategy, o.Wire.upper) with
      | `Unsolvable, _, _ -> Error "served unsolvable for a solvable instance"
      | `Optimal, _, Some u when u <> o.Wire.lower -> Error "optimal with lower <> upper"
      | _, Some s, Some u -> replays_to ~r:rq.Wire.r dag s u
      | _ -> Error "outcome without a strategy certificate")
  | Wire.Bracket -> (
      let* b = Wire.decode_bracket body in
      if b.Wire.lower > b.Wire.upper then Error "bracket lower > upper"
      else
        match b.Wire.strategy with
        | Some s -> replays_to ~r:rq.Wire.r dag s b.Wire.upper
        | None -> Error "bracket without a strategy certificate")
  | Wire.Frontier ->
      let* f = Wire.decode_frontier body in
      if f.Wire.points = [] then Error "empty frontier"
      else
        List.fold_left
          (fun acc (pt : Wire.frontier_point) ->
            let* () = acc in
            match (pt.Wire.comm_upper, pt.Wire.strategy) with
            | Some u, Some s when pt.Wire.comm_lower <= u -> replays_to ~r:pt.Wire.r dag s u
            | Some _, Some _ -> Error "frontier point lower > upper"
            | _ -> Error "frontier point without a witness")
          (Ok ()) f.Wire.points

let route_of_kind = function
  | Wire.Solve -> "/v1/solve"
  | Wire.Bracket -> "/v1/bracket"
  | Wire.Frontier -> "/v1/frontier"

(* Verdicts by request and reply bytes: every served certificate is
   checked, and a byte-identical reply to the same request (a cache
   hit) reuses the verdict of the replay it already passed or failed. *)
type memo = { verdicts : (Digest.t, (unit, string) result) Hashtbl.t; lock : Mutex.t }

let memo () = { verdicts = Hashtbl.create 256; lock = Mutex.create () }

let verdict m ~path ~body rq reply_body =
  let key = Digest.string (path ^ "\000" ^ body ^ "\000" ^ reply_body) in
  match Mutex.protect m.lock (fun () -> Hashtbl.find_opt m.verdicts key) with
  | Some v -> v
  | None ->
      let v = check_reply rq reply_body in
      Mutex.protect m.lock (fun () -> Hashtbl.replace m.verdicts key v);
      v

(* Send [rq] (already encoded as [body]) to its route and check the
   reply.  It counts in [tally] as failed on a transport error, a
   refusal (503), any other non-200 status, or a rejected certificate. *)
let send ~port m tally ~path ~body rq =
  let dt, reply = post ~port path body in
  let outcome =
    match reply with
    | Error e -> Error ("transport: " ^ e)
    | Ok { status = 503; _ } -> Error "refused (503)"
    | Ok { status = 200; body = reply_body; _ } ->
        Result.map_error (fun e -> path ^ ": " ^ e) (verdict m ~path ~body rq reply_body)
    | Ok { status; body = reply_body; _ } ->
        Error (Printf.sprintf "%s: HTTP %d %s" path status reply_body)
  in
  Perfbench_stats.Stats.Tally.record tally
    ~what:(match outcome with Ok () -> "" | Error e -> e)
    (Result.is_ok outcome);
  (dt, reply, outcome)
