(* Workload [serve]: prbpd on loopback with nproc workers, driven in a
   closed loop by this one process through one connection at a time,
   one request per connection.  Three requests in four repeat a small
   key pool on /v1/solve, /v1/bracket and /v1/frontier: cache hits,
   whose certificate the daemon re-verifies before serving.  The
   fourth is a fresh seeded DAG: a cache miss that runs a small solve
   or bracket, inserting into the cache beside the reads and reaching
   the engine through the daemon.  On hits serve, wire and dag do the
   work.  The miss share also keeps p99 inside a well-sampled
   population. *)

open Common
module Wire = Prbp.Wire

type item = { inst : inst; rq : Wire.request; path : string; body : string }

let item (i : inst) kind =
  let rq = Layers.request i kind in
  { inst = i; rq; path = Client.route_of_kind kind; body = Wire.encode_request rq }

let small seed tag k =
  Prbp.Graphs.Random_dag.make ~max_in_degree:2 ~seed:(derive seed tag k) ~layers:4 ~width:2 ()

let pool seed =
  let tree = (Prbp.Graphs.Tree.make ~k:2 ~depth:3).Prbp.Graphs.Tree.dag in
  let diamond = Prbp.Graphs.Basic.diamond () and chain = Prbp.Graphs.Basic.path 6 in
  let fft16 = (Prbp.Graphs.Fft.make ~m:16).Prbp.Graphs.Fft.dag in
  let r0 = small seed "serve-pool" 0 and r1 = small seed "serve-pool" 1 in
  let r2 = small seed "serve-pool" 2 in
  let solve label game ~r g = item (inst ~exact:true label game ~r g) Wire.Solve in
  let bracket label game ~r g = item (inst label game ~r g) Wire.Bracket in
  [| solve "tree(2,3)" Prbp ~r:3 tree; solve "diamond" Rbp ~r:3 diamond;
     solve "diamond" Prbp ~r:2 diamond; solve "path6" Rbp ~r:2 chain;
     solve "random-4x2#0" Prbp ~r:3 r0; solve "random-4x2#1" Rbp ~r:(rbp_r ~at_least:3 r1) r1;
     bracket "tree(2,3)" Rbp ~r:3 tree; bracket "fft16" Prbp ~r:4 fft16;
     bracket "random-4x2#2" Prbp ~r:3 r2;
     item (inst ~frontier:(2, [ 3; 4 ]) "fig1" Prbp ~r:3 (fst (Prbp.Graphs.Fig1.full ()))) Wire.Frontier |]

(* The k-th fresh request: alternately a PRBP solve and an RBP bracket
   of a DAG no earlier request has sent (up to isomorphism, which the
   daemon's canonical cache key sees through, so a rare fresh request
   may still hit). *)
let fresh seed k =
  let g = small seed "serve-fresh" k in
  if k mod 2 = 0 then item (inst ~exact:true "fresh" Prbp ~r:3 g) Wire.Solve
  else item (inst "fresh" Rbp ~r:(rbp_r ~at_least:3 g) g) Wire.Bracket

type state = {
  daemon : Client.daemon;
  pool : item array;
  seed : int;
  mutable next : int;  (** index of the next request of the mix, across windows *)
}

(* The k-th request of the mix: one in four is fresh. *)
let nth s k =
  if k mod 4 = 3 then (None, fresh s.seed (k / 4))
  else
    let j = (k - (k / 4)) mod Array.length s.pool in
    (Some j, s.pool.(j))

let send ~port m tally (it : item) = Client.send ~port m tally ~path:it.path ~body:it.body it.rq

let setup ~prbpd ~seed tally =
  match Client.start ~prbpd ~workers:nproc () with
  | Error e -> Error e
  | Ok daemon ->
      let s = { daemon; pool = pool seed; seed; next = 0 } in
      (* warm-up: every pool key once, so the measured window sees the
         cache in its steady state *)
      let m = Client.memo () in
      Array.iter (fun it -> ignore (send ~port:daemon.Client.port m tally it)) s.pool;
      Ok s

let instances s = List.map (fun it -> it.inst) (Array.to_list s.pool)

type load = {
  lat : float list;  (** seconds, successful requests *)
  last_body : string option array;  (** per pool item *)
  window : float;
  gc_mwords : float;  (** this process's minor allocation over the window *)
  gc_major : int;
  per_route : (string * int * int) list;  (** route, sent, failed *)
}

(* Closed loop for [seconds] over one connection at a time: the next
   request goes out only when the previous reply has fully arrived, so
   at most one daemon worker is busy and the load generator never
   competes with it for a core.  Exchanges are filed into [served] by
   cache header. *)
let drive s ~seconds ~served tally =
  let port = s.daemon.Client.port in
  let m = Client.memo () in
  let lat = ref [] in
  let last_body = Array.make (Array.length s.pool) None in
  let routes = Hashtbl.create 4 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let loop () =
    let last_poll = ref 0. in
    while now () < deadline do
      let j, it = nth s s.next in
      s.next <- s.next + 1;
      let dt, reply, outcome = send ~port m tally it in
      let sent, failed = Option.value ~default:(0, 0) (Hashtbl.find_opt routes it.path) in
      Hashtbl.replace routes it.path (sent + 1, if Result.is_ok outcome then failed else failed + 1);
      Layers.file served dt reply outcome;
      (match reply with
      | Ok { Client.status = 200; body; _ } when Result.is_ok outcome ->
          lat := dt :: !lat;
          Option.iter (fun j -> last_body.(j) <- Some body) j
      | _ -> ());
      (* a traced window also samples the daemon's queue *)
      if Span.enabled () && now () -. !last_poll > 0.5 then begin
        last_poll := now ();
        match Client.status ~port with
        | Ok st -> served.Layers.queued_max <- max served.Layers.queued_max st.Wire.queued
        | Error _ -> ()
      end
    done
  in
  let (), gc_mwords, gc_major = with_gc loop in
  {
    lat = !lat;
    last_body;
    window = now () -. t0;
    gc_mwords;
    gc_major;
    per_route = Hashtbl.fold (fun r (a, f) acc -> (r, a, f) :: acc) routes [] |> List.sort compare;
  }

(* Summed width of the pool's brackets as last served. *)
let width s (l : load) =
  let w = ref 0 in
  Array.iteri
    (fun j it ->
      match (it.rq.Wire.kind, l.last_body.(j)) with
      | Wire.Bracket, Some body -> (
          match Wire.decode_bracket body with Ok b -> w := !w + b.Wire.width | Error _ -> ())
      | _ -> ())
    s.pool;
  !w
