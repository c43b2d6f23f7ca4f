package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the share of the parent's median by which an
// end-to-end metric may worsen; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is the gated set. Every run emits every one of them: the
// driver's contract has one metric list for all workloads, so a cell
// with no meaning on a workload is emitted as the constant 1 and flagged
// n/a in the printed table (run.placeholder).
//
// One seed gives one value of every metric but setup_s, and the seed
// sets only file and record contents, never sizes or layout (rig.go,
// treeSeed), so across seeds the modelled times do not move either.
// The bounds are what is left: how content-defined chunk boundaries
// fall on dedup-week (stored_per_user_byte moves 1.6 % with the seed,
// dump_virt_gbph 0.2 %), and how goroutine scheduling splits buffers
// between a sync.Pool and the heap in a dump pipeline (physical-4d's 44
// allocations per MiB move up to 0.5 % between launches and its
// allocated bytes up to 0.6 %, which is why dump_allocs_per_mib carries
// 0.02 and alloc_bytes_per_user_byte 0.03 where the issue asked 0.01
// and 0.02; one more allocation per MiB there is 2.3 %). A restore runs
// on one goroutine and repeats to 0.1 %. README, "Measured spread", has
// the numbers the bounds were set from.
//
// There is no wall-clock throughput here. Calibrated against a
// reference kernel and measured for 5 s a phase, *_host_rel still spread
// 18–21 % over eight launches of one seed on logical-4d; ISSUE 12 rules
// that such a metric goes to the ungated process.* group, not that its
// bound is widened. What the host path costs is gated through what it
// allocates.
var endToEnd = []metricDef{
	{"dump_virt_gbph", "GB/h", higher, 0.01},
	{"restore_virt_gbph", "GB/h", higher, 0.01},
	{"dump_allocs_per_mib", "1/MiB", lower, 0.02},
	{"restore_allocs_per_mib", "1/MiB", lower, 0.01},
	{"alloc_bytes_per_user_byte", "B/B", lower, 0.03},
	{"stored_per_user_byte", "B/B", lower, 0.05},
	{"job_p50_stretch", "ratio", lower, 0.01},
	{"job_p90_stretch", "ratio", lower, 0.01},
	{"fairness_jain", "index", higher, 0.01},
	{"setup_s", "s", lower, 0.25},
}

// layerDef declares a per-layer series family: name is emitted as
// name.dump and/or name.restore for the phases listed.
type layerDef struct {
	name, unit, better string
	phases             string // "d", "r", "dr", or "" for a phase-less series
}

var layerDefs = []layerDef{
	{"sim.cpu_util", "ratio", higher, "dr"},
	{"sim.host_ms_per_virt_s", "ms/s", lower, "dr"},

	{"vdev.seeks", "count", lower, "dr"},
	{"vdev.blocks_per_seek", "blocks", higher, "dr"},
	{"vdev.busy_virt_s", "s", lower, "dr"},
	{"vdev.retries", "count", lower, "dr"},

	{"raid.disk_util", "ratio", lower, "dr"},
	{"raid.bytes_per_user_byte", "B/B", lower, "dr"},
	{"raid.stripe_reads", "count", lower, "dr"},
	{"raid.host_ns_per_mib", "ns/MiB", lower, "dr"},

	{"wafl.cache_hit_ratio", "ratio", higher, "dr"},
	{"wafl.cp_count", "count", lower, "dr"},
	{"wafl.host_self_ns_per_mib", "ns/MiB", lower, "dr"},

	{"nvram.appends", "count", lower, "dr"},
	{"nvram.busy_virt_s", "s", lower, "dr"},

	{"logical.map_virt_s", "s", lower, "d"},
	{"logical.dirs_virt_s", "s", lower, "dr"},
	{"logical.files_virt_s", "s", lower, "dr"},
	{"logical.files", "count", higher, "dr"},
	{"logical.host_self_ns_per_mib", "ns/MiB", lower, "dr"},

	{"physical.blocks", "count", higher, "dr"},
	{"physical.host_self_ns_per_mib", "ns/MiB", lower, "dr"},

	{"pipeline.virt_gbph_1d", "GB/h", higher, "dr"},
	{"pipeline.virt_gbph_2d", "GB/h", higher, "dr"},
	{"pipeline.scaling_4d_over_1d", "ratio", higher, "dr"},
	{"pipeline.shard_skew", "ratio", lower, "d"},

	{"dumpfmt.records", "count", lower, "dr"},
	{"dumpfmt.stream_bytes_per_user_byte", "B/B", lower, "dr"},

	{"tape.util", "ratio", higher, "dr"},
	{"tape.records", "count", lower, "dr"},
	{"tape.volume_switches", "count", lower, "dr"},
	{"tape.media_errors", "count", lower, "dr"},
	{"tape.host_ns_per_mib", "ns/MiB", lower, "dr"},

	{"chunk.chunks", "count", lower, "d"},
	{"chunk.hit_ratio", "ratio", higher, "d"},
	{"chunk.rewrites", "count", lower, "d"},
	{"chunk.stored_bytes_per_raw_byte", "B/B", lower, "d"},
	{"chunk.compressed_share", "ratio", higher, "d"},
	{"chunk.host_self_ns_per_mib", "ns/MiB", lower, "dr"},
	{"chunk.media_host_ns_per_mib", "ns/MiB", lower, "dr"},

	{"catalog.appends", "count", lower, "d"},
	{"catalog.journal_bytes_per_user_byte", "B/B", lower, "d"},
	{"catalog.index_lookups", "count", lower, "dr"},
	{"catalog.host_ns_per_append", "ns", lower, "d"},

	{"transport.frames_sent", "count", lower, "d"},
	{"transport.wire_bytes_per_user_byte", "B/B", lower, "d"},
	{"transport.host_send_ns_per_frame", "ns", lower, "d"},
	{"transport.host_recv_ns_per_frame", "ns", lower, "d"},

	{"ndmp.window_stalls", "count", lower, "d"},
	{"ndmp.replayed", "count", lower, "d"},
	{"ndmp.throttled_acks", "count", lower, "d"},
	{"ndmp.heartbeats", "count", lower, "d"},
	{"ndmp.frames_per_record", "ratio", lower, "d"},
	{"ndmp.host_self_ns_per_record", "ns", lower, "d"},

	{"sched.granted", "count", higher, "d"},
	{"sched.wait_polls", "count", lower, "d"},
	{"sched.rejected", "count", lower, "d"},
	{"sched.expired", "count", lower, "d"},
	{"sched.throttled", "count", lower, "d"},
	{"sched.admit_wait_p90_virt_s", "s", lower, "d"},

	{"obs.spans", "count", lower, ""},
	{"obs.trace_overhead_rel", "ratio", lower, ""},

	{"process.calib_mibps", "MiB/s", higher, ""},
	{"process.dump_host_mibps", "MiB/s", higher, ""},
	{"process.restore_host_mibps", "MiB/s", higher, ""},
	{"process.dump_host_rel", "ratio", higher, ""},
	{"process.restore_host_rel", "ratio", higher, ""},
	{"process.heap_peak_mib", "MiB", lower, ""},
	{"process.gc_cpu_share", "ratio", lower, ""},
}

// perLayer expands layerDefs into the flat per_layer list.
func perLayer() []metricDef {
	var out []metricDef
	for _, d := range layerDefs {
		if d.phases == "" {
			out = append(out, metricDef{Name: d.name, Unit: d.unit, Better: d.better})
			continue
		}
		for _, ph := range d.phases {
			suffix := ".dump"
			if ph == 'r' {
				suffix = ".restore"
			}
			out = append(out, metricDef{Name: d.name + suffix, Unit: d.unit, Better: d.better})
		}
	}
	return out
}

// workloadDef names one workload, why it exists, and how to run it.
type workloadDef struct {
	Name string
	Why  string
	wl   benchWorkload
}

// benchWorkload is one of the four measured paths. endToEnd runs the gated
// protocol (set-up, virtual pass, host phases) and layers runs the
// separate traced protocol; both verify every restore.
type benchWorkload interface {
	endToEnd(r *run) error
	layers(r *run) error
}

var workloads = []workloadDef{
	{"logical-4d",
		"aged 64 MiB tree, logical dump/restore over 4 drives: inode-ordered 4 KiB reads make vdev/raid seeks and wafl+nvram do the work",
		&volumeWL{kind: kindLogical}},
	{"physical-4d",
		"same volume and seed, physical dump/restore over 4 drives: block-order streaming bypasses wafl and nvram, so tape and engine CPU dominate",
		&volumeWL{kind: kindPhysical}},
	{"dedup-week",
		"seven daily fulls of a 12 MiB volume through the RevDedup chunk writer onto tape with the index in a catalog journal: chunk and catalog do the work",
		&volumeWL{kind: kindDedup}},
	{"fleet-push",
		"100 clients in 4 tenants push through ndmp and transport into a host gated by a 4-slot drive pool: session, wire and scheduler work, no engine",
		&fleetWL{}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
