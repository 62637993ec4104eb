(* perfbench: one workload per process, driven as

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --ld PATH

   With --trace 0 it prints the end-to-end metrics; with --trace 1 the
   per-layer ones, measured by timing calls into the program's public
   functions from here (the program itself records nothing). The last
   stdout line is the JSON result. See README.md. *)

open Common

(* One workload: how to set it up, run one op, and find the process
   that does the work. *)
type 'st spec = {
  setup : layers:acc option -> unit -> 'st;
  op : 'st -> layers:acc option -> unit -> float * check;
  teardown : 'st -> unit;
  worker : 'st -> int option;  (** pid of the child doing the work; [None]: this process *)
  domains_used : 'st -> int;  (** domains the working process has run on *)
  op_layers : string list;  (** op layers the replay times; the rest is unattributed *)
  extras : 'st -> acc -> (string * float) list;  (** derived per-layer values *)
  inject_fault : ('st -> unit) option;
}

type any = Spec : 'st spec -> any

(* CPU ms and VmHWM in MB of the working process. *)
let cpu s st () = match s.worker st with None -> cpu_ms () | Some pid -> proc_cpu_ms pid

let rss_mb s st =
  match s.worker st with
  | None -> peak_rss_mb ()
  | Some pid -> float_of_int (proc_status pid "VmHWM") /. 1024.

(* In-process ops start from a collected heap (see [timed_ops]). *)
let collect s st = Option.is_none (s.worker st)

let in_process _ = None
let pool_domains _ = Pool.max_workers_used ()
let no_extras _ _ = []

let thm1_cold cfg =
  Spec
    {
      setup = (fun ~layers:_ () -> ());
      op = (fun () ~layers -> Thm1.cold_op cfg ~layers);
      teardown = ignore;
      worker = in_process;
      domains_used = pool_domains;
      op_layers = Thm1.cold_layer_names;
      extras = no_extras;
      inject_fault = None;
    }

let thm1_warm cfg =
  let n = ref 0 in
  Spec
    {
      setup =
        (fun ~layers () ->
          incr n;
          Thm1.warm_setup cfg ~layers ~n:!n ());
      op = (fun w ~layers -> Thm1.warm_op w ~layers);
      teardown = (fun w -> rm_rf w.Thm1.dir);
      worker = in_process;
      domains_used = pool_domains;
      op_layers = Thm1.warm_layer_names;
      extras = no_extras;
      inject_fault = Some Thm1.corrupt_one_record;
    }

let runtime_1m cfg =
  Spec
    {
      setup = Runtime_1m.setup cfg;
      op = (fun st ~layers -> Runtime_1m.op cfg st ~layers);
      teardown = ignore;
      worker = in_process;
      domains_used = pool_domains;
      op_layers = [ "runtime.ii_ms"; "runtime.dp_ms" ];
      extras =
        (fun _ a ->
          let ms = total a "runtime.ii_ms" +. total a "runtime.dp_ms" in
          [ ("runtime.sends_per_s", total a "runtime.sends" /. (ms /. 1000.)) ]);
      inject_fault = None;
    }

let serve_warm cfg =
  let open Serve_warm in
  Spec
    {
      setup = setup cfg;
      op = (fun st ~layers -> op st ~layers);
      teardown = (fun st -> stop st.srv);
      worker = (fun st -> Some st.srv.pid);
      domains_used = (fun st -> domains_used st.srv);
      op_layers = [];
      extras = (fun st _ -> [ ("serve.ping_batch_p50_ms", median !(st.pings)) ]);
      inject_fault = None;
    }

let workloads =
  [ ("thm1-cold", thm1_cold); ("thm1-warm", thm1_warm); ("runtime-1m", runtime_1m);
    ("serve-warm", serve_warm) ]

(* Every per-layer metric, in report order. [`Op] values are means per
   traced op, [`Setup] values means per set-up; [`Derived] ones are
   computed below. A layer the workload does not touch reads 0. *)
let per_layer =
  [
    ("matching.probe_run_ms", "ms", `Op);
    ("matching.probe_runs", "count", `Op);
    ("cover.unfold_ms", "ms", `Op);
    ("cover.views_ms", "ms", `Op);
    ("fm.feasibility_ms", "ms", `Op);
    ("fm.pull_back_ms", "ms", `Op);
    ("core.frontier_ms", "ms", `Op);
    ("core.unattributed_ms", "ms", `Derived);
    ("store.open_ms", "ms", `Op);
    ("store.get_ms", "ms", `Op);
    ("store.bytes_read", "bytes", `Op);
    ("core.decode_ms", "ms", `Op);
    ("core.assemble_ms", "ms", `Op);
    ("core.encode_ms", "ms", `Setup);
    ("store.put_ms", "ms", `Setup);
    ("store.bytes_written", "bytes", `Setup);
    ("runtime.ii_ms", "ms", `Op);
    ("runtime.dp_ms", "ms", `Op);
    ("runtime.sends", "count", `Op);
    ("runtime.rounds", "count", `Op);
    ("runtime.sends_per_s", "1/s", `Derived);
    ("graph.generate_ms", "ms", `Setup);
    ("gc.minor_words_per_op", "words", `Derived);
    ("gc.major_collections_per_op", "count", `Derived);
    ("serve.preload_ms", "ms", `Setup);
    ("serve.ping_batch_p50_ms", "ms", `Derived);
    ("client.check_us_per_batch", "us", `Op);
    ("pool.domains_used", "count", `Derived);
    ("trace.op_p50_ms", "ms", `Derived);
    ("trace.overhead_pct", "%", `Derived);
  ]

let domain_error used =
  if used > 1 then begin
    Printf.printf "ERROR: the work ran on %d domains; this benchmark runs on one\n%!" used;
    true
  end
  else false

let report_counts ~attempted ~failed ~ops =
  Printf.printf "ops: %d timed, %d attempted (warm-ups included), %d failed, failed_ratio %.6f ratio\n"
    ops attempted failed
    (float_of_int failed /. float_of_int attempted)

let run_end_to_end cfg (Spec s) =
  probe_start ();
  let st, setup_ms, warm_failed =
    setup_loop ~what:cfg.workload ~teardown:s.teardown (s.setup ~layers:None) (fun st ->
        snd (s.op st ~layers:None ()))
  in
  (match s.inject_fault with
  | Some inject when cfg.corrupt_after_setup -> inject st
  | None when cfg.corrupt_after_setup -> failwith "this workload has no fault injection"
  | _ -> ());
  let ticks0 = host_ticks () in
  let lat, failed, ops, cpu_per_op =
    timed_ops ~what:cfg.workload ~seconds:cfg.seconds ~cpu:(cpu s st) ~collect:(collect s st) (s.op st ~layers:None)
  in
  let steal = steal_pct ticks0 (host_ticks ()) in
  let rss = rss_mb s st in
  let used = s.domains_used st in
  s.teardown st;
  let probes = match !probe with Some p -> p.samples | None -> [] in
  probe_stop ();
  print_meta cfg ~domains_used:used;
  let attempted = ops + setups and failed = failed + warm_failed in
  report_counts ~attempted ~failed ~ops;
  (* A run slowed by a busy host shows here, not as a change of code. *)
  Printf.printf "host: %.2f%% of CPU time stolen by the hypervisor during the timed phase\n" steal;
  (* Printed, not gated: on serve-warm it is set by host stalls. *)
  Printf.printf "op_p99_ms %.4f ms (nearest rank over %d ops)\n" (quantile 0.99 lat) ops;
  if cfg.workload = "serve-warm" then
    Printf.printf "server_cpu_us_per_req %.4f us (%d requests per op)\n"
      (cpu_per_op *. 1000. /. float_of_int Serve_warm.batch)
      Serve_warm.batch;
  let timings =
    [ m "setup_s" "s" (median setup_ms /. 1000.); m "op_p50_ms" "ms" (median lat); m "cpu_ms_per_op" "ms" cpu_per_op ]
  in
  print_metrics "as measured:" timings;
  let probe_ms = median probes in
  Printf.printf
    "host probe: median %.4f ms over %d runs (%.4f–%.4f); timings below are scaled by (%g / %.4f)^%g\n"
    probe_ms (List.length probes) (List.fold_left Float.min infinity probes)
    (List.fold_left Float.max 0. probes) probe_ref_ms probe_ms probe_exponent;
  let scale v = v *. ((probe_ref_ms /. probe_ms) ** probe_exponent) in
  (* Printed, not gated: on serve-warm the host's fast episodes move the
     latency median more than the probe follows (README, Host speed). *)
  Printf.printf "op_p50_ms %.4f ms (scaled)\n" (scale (median lat));
  let metrics =
    [
      m "setup_s" "s" (scale (median setup_ms /. 1000.));
      m "cpu_ms_per_op" "ms" (scale cpu_per_op);
      m "peak_rss_mb" "MB" rss;
    ]
  in
  print_metrics (Printf.sprintf "end-to-end (%d ops, %d set-ups):" ops setups) metrics;
  let bad_domains = domain_error used in
  result_line ~correct:(failed = 0 && not bad_domains) ~attempted ~failed metrics

(* The traced run: set-ups with their layers replayed, then half the
   time untraced ops (the overhead baseline and the GC figures), then
   half the time traced ops, each followed by its replay. *)
let run_traced cfg (Spec s) =
  let a_setup = acc () and a_op = acc () in
  let st, _, warm_failed =
    setup_loop ~what:cfg.workload ~teardown:s.teardown (s.setup ~layers:(Some a_setup))
      (fun st -> snd (s.op st ~layers:None ()))
  in
  let half = cfg.seconds /. 2. in
  (* GC work of the untraced ops themselves, not of the collections
     between them. *)
  let minor_words = ref 0. and majors = ref 0 in
  let op_with_gc () =
    let w0, c0 = gc_words () in
    let r = s.op st ~layers:None () in
    let w1, c1 = gc_words () in
    minor_words := !minor_words +. (w1 -. w0);
    majors := !majors + (c1 - c0);
    r
  in
  let lat_u, failed_u, ops_u, _ =
    timed_ops ~what:cfg.workload ~seconds:half ~cpu:(cpu s st) ~collect:(collect s st) op_with_gc
  in
  let lat_t, failed_t, ops_t, _ =
    timed_ops ~what:cfg.workload ~seconds:half ~cpu:(cpu s st) ~collect:(collect s st) (s.op st ~layers:(Some a_op))
  in
  let used = s.domains_used st in
  let extras = s.extras st a_op in
  s.teardown st;
  print_meta cfg ~domains_used:used;
  let per_op name = total a_op name /. float_of_int ops_t in
  let mean_op = mean lat_t in
  let derived = function
    | "core.unattributed_ms" ->
      mean_op -. List.fold_left (fun acc l -> acc +. per_op l) 0. s.op_layers
    | "gc.minor_words_per_op" -> !minor_words /. float_of_int ops_u
    | "gc.major_collections_per_op" -> float_of_int !majors /. float_of_int ops_u
    | "pool.domains_used" -> float_of_int used
    | "trace.op_p50_ms" -> median lat_t
    | "trace.overhead_pct" -> ((median lat_t /. median lat_u) -. 1.) *. 100.
    | name -> Option.value ~default:0. (List.assoc_opt name extras)
  in
  let metrics =
    List.map
      (fun (name, unit_, kind) ->
        m name unit_
          (match kind with
          | `Op -> per_op name
          | `Setup -> total a_setup name /. float_of_int setups
          | `Derived -> derived name))
      per_layer
  in
  let attempted = setups + ops_u + ops_t and failed = warm_failed + failed_u + failed_t in
  report_counts ~attempted ~failed ~ops:(ops_u + ops_t);
  Printf.printf "traced: %d untraced ops (op p50 %.4f ms), %d traced ops (mean %.4f ms)\n"
    ops_u (median lat_u) ops_t mean_op;
  Printf.printf "mean traced op %.4f ms = op layers %.4f ms (%s) + core.unattributed_ms %.4f ms\n"
    mean_op
    (mean_op -. derived "core.unattributed_ms")
    (String.concat " + " s.op_layers)
    (derived "core.unattributed_ms");
  print_metrics "per-layer (means per traced op or per set-up):" metrics;
  let bad_domains = domain_error used in
  result_line ~correct:(failed = 0 && not bad_domains) ~attempted ~failed metrics

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --ld PATH \
     [--tiny] [--corrupt-after-setup]";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe" then begin
    probe_serve ();
    exit 0
  end;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let ld = ref "" and tiny = ref false and corrupt = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--ld" :: v :: rest -> ld := v; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--corrupt-after-setup" :: rest -> corrupt := true; parse rest
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  (match parse (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception Failure _ -> usage ());
  let make =
    match List.assoc_opt !workload workloads with Some f -> f | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) || !ld = "" then usage ();
  let work_dir = Filename.concat ".perfbench" (string_of_int (Unix.getpid ())) in
  let cfg =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
      tiny = !tiny; corrupt_after_setup = !corrupt; ld = !ld; work_dir }
  in
  rm_rf work_dir;
  at_exit (fun () ->
      rm_rf work_dir;
      (* Gone once no other run is using it. *)
      try Sys.rmdir ".perfbench" with Sys_error _ -> ());
  (* A terminated or interrupted run still cleans up and stops any
     server child: the handlers leave through [at_exit]. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let spec = make cfg in
  if cfg.trace then run_traced cfg spec else run_end_to_end cfg spec
