(* Shared harness for the perfbench workloads: clock, CPU and memory
   probes, order statistics, the seeded input stream, the host-speed
   probe, the run loops, per-layer accumulation, and the result line. *)

module Obs = Ld_obs.Obs
module Pool = Ld_pool.Pool

(* ---- configuration ---- *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test sizes: Δ <= 6, n = 10^4, few batches *)
  corrupt_after_setup : bool;  (** thm1-warm fault injection *)
  ld : string;  (** path of the `ld` executable (serve-warm) *)
  work_dir : string;  (** scratch directory inside the checkout *)
}

(* Set-ups per run: [setup_s] is their median, so one slow set-up
   (a host hiccup) does not move it. *)
let setups = 3

(* ---- clock, CPU, memory ---- *)

let now_ms () = Obs.now_ms ()

let time_ms f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* User + system CPU of this process, in ms. *)
let cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.

let peak_rss_mb () =
  match Obs.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "VmHWM unavailable (no /proc/self/status)"

(* ---- /proc probes of a child process ---- *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of [pid] in ms (fields 14 and 15 of /proc/<pid>/stat,
   in clock ticks of 1/100 s). *)
let proc_cpu_ms pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.

let proc_status pid name =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (String.starts_with ~prefix:(name ^ ":")) lines with
  | None -> failwith (Printf.sprintf "/proc/%d/status has no %s" pid name)
  | Some l ->
    let v = String.trim (String.sub l (String.length name + 1) (String.length l - String.length name - 1)) in
    int_of_string (List.hd (String.split_on_char ' ' v))

(* Steal and total ticks of all CPUs, from the first line of /proc/stat
   (user nice system idle iowait irq softirq steal ...). Steal is time a
   virtual CPU was runnable but the hypervisor ran someone else. *)
let host_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: fields ->
    let t = List.filter_map int_of_string_opt fields in
    (List.nth t 7, List.fold_left ( + ) 0 t)
  | _ -> failwith "/proc/stat: no cpu line"

(* Share of the host's CPU time stolen between two [host_ticks]. *)
let steal_pct (s0, t0) (s1, t1) =
  if t1 = t0 then 0. else 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* ---- order statistics ---- *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  a.(Stdlib.max 0 (Stdlib.min (n - 1) k))

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> invalid_arg "mean: empty sample"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ---- seeded input stream (splitmix64, as `ld load` uses) ---- *)

let mix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform state =
  Int64.to_float (Int64.shift_right_logical (mix state) 11)
  *. (1.0 /. 9007199254740992.0)

let below state n = Stdlib.min (n - 1) (int_of_float (uniform state *. float_of_int n))

(* ---- failures ---- *)

(* Outcome of one op's own output check: [Error reason] counts the op
   as failed; it is reported, never dropped. *)
type check = (unit, string) result

let first_errors = ref 0

let report_failure ~what reason =
  incr first_errors;
  if !first_errors <= 5 then Printf.printf "CHECK FAILED: %s: %s\n%!" what reason

(* ---- metrics and the result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last stdout line: the machine-readable result. *)
let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        failwith (Printf.sprintf "metric %s is not finite" x.name))
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-30s %14.4f %s\n" x.name x.value x.unit_)
    metrics

(* ---- run metadata ---- *)

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.starts_with ~prefix:"model name" line ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let print_meta cfg ~domains_used =
  let p = Ld_obs.Provenance.capture () in
  Printf.printf
    "meta: workload=%s seed=%d seconds=%g trace=%b tiny=%b \
     pool.max_workers_used=%d LD_DOMAINS=%s nproc=%d cpu=%S ocaml=%s \
     commit=%s dirty=%s\n%!"
    cfg.workload cfg.seed cfg.seconds cfg.trace cfg.tiny domains_used
    (Option.value ~default:"unset" (Sys.getenv_opt "LD_DOMAINS"))
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version p.Ld_obs.Provenance.commit
    (match p.Ld_obs.Provenance.dirty with
    | Some b -> string_of_bool b
    | None -> "unknown")

let rm_rf path =
  if Sys.file_exists path then
    match Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote path)) with
    | 0 -> ()
    | c -> failwith (Printf.sprintf "rm -rf %s exited %d" path c)

(* ---- host-speed probe ---- *)

(* The host this benchmark was built on changes speed by up to 50% for
   minutes at a time (other tenants' load), which moves every timing of
   every workload together. A probe process runs a fixed kernel between
   ops; the timings the result reports are scaled by [probe_ref_ms] over
   the run's median probe time (see [probe_exponent]), i.e. given at a
   fixed host speed. The
   probe is a separate process (this executable with --probe), so its
   time does not depend on the program's heap or code; it runs only
   while the workload waits for it. *)

(* The kernel: integer arithmetic, random reads over 64 MB, and
   allocation with promotion, the three costs the workloads are made
   of. Returns its time in ms. *)
let probe_kernel mem =
  let t0 = now_ms () in
  let x = ref 1 in
  for _ = 1 to 10_000_000 do
    x := (!x * 0x1851F42D4C957F2D + 0x34057B7EF767814F) lxor (!x lsr 17)
  done;
  let n = Array.length mem in
  let i = ref 1 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    i := ((!i * 1103515245) + 12345) land (n - 1);
    acc := !acc + mem.(!i)
  done;
  let l = ref [] in
  for k = 1 to 500_000 do
    l := (k, float_of_int k) :: !l;
    if k land 0xffff = 0 then l := []
  done;
  ignore (Sys.opaque_identity (!x, !acc, !l));
  now_ms () -. t0

(* The probe process: one kernel run per line read, its time printed. *)
let probe_serve () =
  let mem = Array.init (1 lsl 23) (fun i -> (i * 7919) land ((1 lsl 23) - 1)) in
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.17g\n%!" (probe_kernel mem)
    done
  with End_of_file -> ()

(* The reference speed: scaled timings are those of a host on which
   the kernel takes this long (60–100 ms on the VM the benchmark was
   built on). *)
let probe_ref_ms = 70.

(* Scaled timing = measured × (probe_ref_ms / median probe) ^ this. The
   workloads' times move more than the probe's when the host changes
   speed (their working sets, 200–315 MB, are larger than its 64 MB):
   between a slow and a fast episode the in-log ratio was 1.4–1.8 over
   the four workloads. 1.25 stays below all of them, so the scaling
   never overcorrects. *)
let probe_exponent = 1.25

type probe = {
  p_pid : int;
  p_in : in_channel;
  p_out : out_channel;
  mutable samples : float list;  (** kernel times in ms, the warm-up run left out *)
  mutable last : float;  (** when the last run started *)
}

let probe : probe option ref = ref None

let probe_stop () =
  Option.iter
    (fun p ->
      probe := None;
      close_out_noerr p.p_out;
      close_in_noerr p.p_in;
      ignore (Unix.waitpid [] p.p_pid))
    !probe

let probe_run p =
  output_string p.p_out "run\n";
  flush p.p_out;
  p.last <- now_ms ();
  float_of_string (input_line p.p_in)

let probe_start () =
  let r_in, w_in = Unix.pipe ~cloexec:true () and r_out, w_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe" |] r_in w_out Unix.stderr in
  Unix.close r_in;
  Unix.close w_out;
  let p =
    { p_pid = pid; p_in = Unix.in_channel_of_descr r_out; p_out = Unix.out_channel_of_descr w_in;
      samples = []; last = 0. }
  in
  probe := Some p;
  at_exit probe_stop;
  (* The first run pays for page faults and a cold cache. *)
  ignore (probe_run p)

(* [probe_sample ~every] runs the probe if one is started and [every] ms
   have passed since its last run. *)
let probe_sample ~every =
  Option.iter
    (fun p -> if now_ms () -. p.last >= every then p.samples <- probe_run p :: p.samples)
    !probe

(* ---- run loops ---- *)

(* [timed_ops ~seconds ~cpu ~collect op] repeats [op] until [seconds]
   have passed (at least one op) and returns the op latencies, the
   failure count, the op count and the CPU per op of the working
   process, read by [cpu]. [op] returns its own latency, so a traced op
   can leave its replay out of the figure; its check result counts
   failures. With [collect] (in-process workloads), every op starts
   from a fully collected heap, so it does not pay for its
   predecessor's garbage; the collection is outside the op's clock and
   its CPU, read with [cpu_ms], is not charged to the ops. A started
   probe runs before an op once a second, also outside the op. *)
let timed_ops ~what ~seconds ~cpu ~collect op =
  let deadline = now_ms () +. (seconds *. 1000.) in
  let cpu0 = cpu () in
  let gc_cpu = ref 0. in
  let rec go lat failed n =
    if n > 0 && now_ms () >= deadline then (List.rev lat, failed, n)
    else begin
      probe_sample ~every:1000.;
      if collect then begin
        let c0 = cpu_ms () in
        Gc.full_major ();
        gc_cpu := !gc_cpu +. (cpu_ms () -. c0)
      end;
      let ms, check = op () in
      let failed =
        match check with
        | Ok () -> failed
        | Error reason ->
          report_failure ~what reason;
          failed + 1
      in
      go (ms :: lat) failed (n + 1)
    end
  in
  let lat, failed, n = go [] 0 0 in
  (lat, failed, n, (cpu () -. cpu0 -. !gc_cpu) /. float_of_int n)

(* [setup_loop ~what setup warm_up] runs [setups] set-ups, each timed
   together with its discarded warm-up op, and returns the last state.
   A failed warm-up op counts as an attempted, failed op. A started
   probe runs before each set-up. *)
let setup_loop ~what ~teardown setup warm_up =
  let rec go k acc failed st =
    if k = setups then (Option.get st, List.rev acc, failed)
    else begin
      Option.iter teardown st;
      Gc.compact ();
      probe_sample ~every:0.;
      let t0 = now_ms () in
      let s = setup () in
      let check = warm_up s in
      let dt = now_ms () -. t0 in
      let failed =
        match check with
        | Ok () -> failed
        | Error reason ->
          report_failure ~what:(what ^ " warm-up") reason;
          failed + 1
      in
      go (k + 1) (dt :: acc) failed (Some s)
    end
  in
  go 0 [] 0 None

(* ---- per-layer accumulation ---- *)

(* Layer times summed over the traced ops (or set-ups); reported as
   per-op means so the layers and the signed remainder add up to the
   mean op exactly. *)
type acc = (string, float ref) Hashtbl.t

let acc () : acc = Hashtbl.create 32

let add (a : acc) name v =
  match Hashtbl.find_opt a name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add a name (ref v)

let total (a : acc) name =
  match Hashtbl.find_opt a name with Some r -> !r | None -> 0.

(* [timed a name f] runs [f], adding its latency to layer [name]. *)
let timed a name f =
  let r, dt = time_ms f in
  add a name dt;
  r

(* Words allocated by this domain so far (exact, unlike the
   [quick_stat] figure, which lags until a collection) and the major
   cycles completed. *)
let gc_words () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)
