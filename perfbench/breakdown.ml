(* The traced run's detail file: spans, allocator call timings per
   (policy, phase, operation) — fill is the fresh free list, aging the
   shattered one — and the re-issued disk / cache timings, each as a
   median, the highest percentile with ten samples beyond it, and the
   sample count. *)

module C = Core
module L = Layers

let summary_json tm =
  let open C.Obs.Json in
  let p50, tail, n = L.summary tm in
  Obj
    ([ ("n", Int n); ("us_p50", Float p50) ]
    @ match tail with Some (name, v) -> [ ("us_" ^ name, Float v) ] | None -> [])

let write ~dir ~workload ~seed ~traced ~sync ~queued ~cache =
  let open C.Obs.Json in
  let alloc =
    List.map
      (fun (r : Cell.result) ->
        ( r.Cell.label,
          Obj
            (List.filter_map
               (fun ph ->
                 let ops =
                   List.filter_map
                     (fun op ->
                       let tm = r.Cell.probe.L.timers.(ph).(op) in
                       if tm.L.calls = 0 then None else Some (L.alloc_ops.(op), summary_json tm))
                     (List.init (Array.length L.alloc_ops) Fun.id)
                 in
                 if ops = [] then None else Some (L.phases.(ph), Obj ops))
               (List.init (Array.length L.phases) Fun.id)) ))
      traced
  in
  let doc =
    Obj
      [
        ("workload", Str workload);
        ("seed", Int seed);
        ("alloc", Obj alloc);
        ("reissue", Obj [ ("disk.sync", summary_json sync); ("disk.queued", summary_json queued); ("cache", summary_json cache) ]);
        ("spans", L.spans_json ());
      ]
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" workload seed) in
  Out_channel.with_open_bin path (fun oc -> C.Obs.Json.to_channel oc doc)
