(* serve-warm: a closed loop from one client over one connection to an
   `ld serve` child started at one domain. Each op is one 64-request
   verify batch round-trip. Set-up preloads Δ = 2..14 and asks every
   (Δ, rounds) pair of the mix once, so every timed verdict is a memo
   hit and the op measures the wire, the event loop, dispatch and JSON.

   The seed drives the request mix: Δ follows the power law
   1/(Δ−1) over 2..14 (as `ld load` draws it), rounds are uniform in
   0..Δ+2. The expected verdict is the paper's frontier, not the
   service's: certified iff rounds >= Δ. *)

open Common
module Json = Ld_obs.Json

let max_delta = 14
let batch = 64

(* ---- the server child ---- *)

type server = { pid : int; port : int; mutable fd : Unix.file_descr option }

let live : server list ref = ref []

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let rec read_exact fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then failwith "server closed the connection";
    read_exact fd buf (off + n) (len - n)
  end

(* One frame out, one frame in: 4-byte big-endian length + JSON. This
   and the Δ sampler below restate bin/wire.ml and bin/load.ml, which
   are modules of the `ld` executable and cannot be linked here. *)
let round_trip fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd (Bytes.unsafe_to_string b) 0 (4 + n);
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > 1 lsl 26 then failwith "bad response frame length";
  let body = Bytes.create len in
  read_exact fd body 0 len;
  Bytes.unsafe_to_string body

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* A hung server fails the run instead of hanging it. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
    Some fd
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
    Unix.close fd;
    None

let ping_batch n = "[" ^ String.concat "," (List.init n (fun _ -> {|{"op":"ping"}|})) ^ "]"

let is_ok r = match Json.member "ok" r with Some (Json.Bool true) -> true | _ -> false

let all_ok payload ~n =
  match Json.parse payload with
  | Json.Arr rs -> List.length rs = n && List.for_all is_ok rs
  | _ | (exception Json.Parse_error _) -> false

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Shut a server down with its own `shutdown` op; kill it if it has
   not exited within five seconds. Either way it is reaped. *)
let stop srv =
  live := List.filter (fun s -> s.pid <> srv.pid) !live;
  (match srv.fd with
  | Some fd ->
    (try ignore (round_trip fd {|[{"op":"shutdown"}]|}) with
     | Unix.Unix_error _ | Failure _ -> ());
    Unix.close fd;
    srv.fd <- None
  | None -> ());
  let deadline = now_ms () +. 5000. in
  let rec wait () =
    if exited srv.pid then ()
    else if now_ms () > deadline then begin
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] srv.pid)
    end
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ()

let () = at_exit (fun () -> List.iter stop !live)

(* Start `ld serve` at one domain and wait until it answers a ping. *)
let start cfg =
  let port = free_port () in
  let top = if cfg.tiny then 6 else max_delta in
  let argv =
    [| cfg.ld; "serve"; "--port"; string_of_int port; "--no-store"; "--max-delta";
       string_of_int top; "--preload"; string_of_int top |]
  in
  let env =
    Array.append [| "LD_DOMAINS=1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"LD_DOMAINS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process_env cfg.ld argv env null null null)
  in
  let srv = { pid; port; fd = None } in
  live := srv :: !live;
  let deadline = now_ms () +. 120_000. in
  let rec ready () =
    if exited pid then failwith "ld serve exited during start-up"
    else if now_ms () > deadline then failwith "ld serve did not answer a ping within 120 s"
    else
      match connect port with
      | Some fd when all_ok (round_trip fd (ping_batch 1)) ~n:1 -> srv.fd <- Some fd
      | Some fd ->
        Unix.close fd;
        failwith "ld serve answered the first ping wrongly"
      | None ->
        Unix.sleepf 0.005;
        ready ()
  in
  ready ();
  srv

(* Domains the server has used: its main domain plus every worker its
   pool spawned, read from the server's own counter. The pool joins its
   workers after each map, so the server's thread count would miss them. *)
let domains_used srv =
  let fd = Option.get srv.fd in
  let spawned =
    match Json.parse (round_trip fd {|[{"op":"stats"}]|}) with
    | Json.Arr [ r ] when is_ok r ->
      Option.bind (Json.member "counters" r) (Json.member "core.pool.workers_spawned")
      |> Fun.flip Option.bind Json.to_float
      (* A counter that was never bumped is not in the snapshot. *)
      |> Option.value ~default:0.
    | _ | (exception Json.Parse_error _) -> failwith "ld serve answered stats wrongly"
  in
  1 + int_of_float spawned

(* ---- the request mix ---- *)

let delta_sampler ~top =
  let n = top - 1 in
  let cum = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. (1. /. float_of_int (i + 1));
    cum.(i) <- !total
  done;
  fun st ->
    let u = uniform st *. !total in
    let rec find i = if i >= n - 1 || cum.(i) >= u then i + 2 else find (i + 1) in
    find 0

let render pairs =
  "["
  ^ String.concat ","
      (List.map
         (fun (d, r) -> Printf.sprintf {|{"op":"verify","delta":%d,"rounds":%d}|} d r)
         pairs)
  ^ "]"

let int_member k v =
  match Option.bind (Json.member k v) Json.to_float with
  | Some f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* Every response ok, one per request, and the frontier's verdict. *)
let check pairs payload : check =
  match Json.parse payload with
  | exception Json.Parse_error (msg, _) -> Error ("unparseable response: " ^ msg)
  | Json.Arr rs when List.length rs <> List.length pairs ->
    Error (Printf.sprintf "%d responses to %d requests" (List.length rs) (List.length pairs))
  | Json.Arr rs ->
    let good (d, r) resp =
      is_ok resp
      && Option.equal Int.equal (int_member "delta" resp) (Some d)
      && Option.equal Int.equal (int_member "rounds" resp) (Some r)
      && Option.equal String.equal
           (Option.bind (Json.member "verdict" resp) Json.to_string)
           (Some (if r >= d then "certified" else "refuted"))
    in
    if List.for_all2 good pairs rs then Ok ()
    else Error "a response is not ok or has the wrong verdict"
  | _ -> Error "response is not an array"

type state = {
  srv : server;
  fd : Unix.file_descr;
  next : unit -> (int * int) list;  (** the next batch of the seeded mix *)
  pings : float list ref;  (** ping-batch round-trips of a traced run *)
}

let setup cfg ~layers () =
  let t0 = now_ms () in
  let srv = start cfg in
  Option.iter (fun a -> add a "serve.preload_ms" (now_ms () -. t0)) layers;
  let fd = Option.get srv.fd in
  let top = if cfg.tiny then 6 else max_delta in
  (* Every pair of the mix once, so each timed verdict is a memo hit. *)
  let pairs = List.concat (List.init (top - 1) (fun i -> List.init (i + 5) (fun r -> (i + 2, r)))) in
  (match check pairs (round_trip fd (render pairs)) with
  | Ok () -> ()
  | Error e -> failwith ("warming the verdict memo: " ^ e));
  let st = ref (Int64.of_int cfg.seed) in
  let draw = delta_sampler ~top in
  let next () =
    List.init batch (fun _ ->
        let d = draw st in
        (d, below st (d + 3)))
  in
  { srv; fd; next; pings = ref [] }

(* One op: one batch round-trip. The response is parsed and checked
   after the clock stops; with [layers] that check is timed, and a
   64-ping batch follows on the same connection. *)
let op st ~layers () =
  let pairs = st.next () in
  let payload = render pairs in
  let resp, ms = time_ms (fun () -> round_trip st.fd payload) in
  let result, t_check = time_ms (fun () -> check pairs resp) in
  match layers with
  | None -> (ms, result)
  | Some a ->
    add a "client.check_us_per_batch" (t_check *. 1000.);
    let ok, t_ping = time_ms (fun () -> all_ok (round_trip st.fd (ping_batch batch)) ~n:batch) in
    st.pings := t_ping :: !(st.pings);
    (ms, if ok then result else Error "a ping was not answered ok")
