// Package bench is the measurement harness that regenerates the
// paper's evaluation (§5): basic backup/restore to one tape (Tables 2
// and 3), parallel backup/restore to two and four tapes (Tables 4 and
// 5), the concurrent-volume experiment and the scaling summary of
// §5.1–5.3, plus the ablations called out in DESIGN.md. Results carry
// elapsed virtual time, throughput, and per-stage CPU/disk/tape
// utilization in the same shape the paper reports.
package bench

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Meters samples every resource of an experiment through an
// obs.Registry that each resource registered its pull collectors on
// once, so the numbers the tables report are the ones backupctl stats
// exports.
type Meters struct {
	Env *sim.Env
	Reg *obs.Registry
}

// metersFor builds the meters over a filer's CPU, volume and tapes.
func metersFor(f *core.Filer) *Meters {
	m := &Meters{Env: f.Env, Reg: obs.NewRegistry()}
	cpu := f.CPU
	m.Reg.RegisterFunc("sim_cpu_busy_seconds", obs.KindGauge, nil,
		func() float64 { return cpu.Busy().Seconds() })
	f.Vol.RegisterMetrics(m.Reg)
	for _, t := range f.Tapes {
		t.RegisterMetrics(m.Reg)
	}
	return m
}

// busyDuration converts a busy-seconds gauge back to a duration.
// Round, not truncate: the float trip through the registry can land a
// hair under the exact nanosecond count.
func busyDuration(sec float64) time.Duration {
	return time.Duration(math.Round(sec * 1e9))
}

// Sample is a point-in-time reading of all resources.
type Sample struct {
	T                   sim.Time
	CPUBusy             time.Duration
	DiskRead, DiskWrite int64
	DiskBusy            time.Duration
	TapeIO              int64
	TapeBusy            time.Duration
}

// Take reads all meters now, through the registry.
func (m *Meters) Take() Sample {
	reg := m.Reg
	return Sample{
		T:         m.Env.Now(),
		CPUBusy:   busyDuration(reg.Sum("sim_cpu_busy_seconds")),
		DiskRead:  int64(reg.Sum("raid_read_bytes_total")),
		DiskWrite: int64(reg.Sum("raid_written_bytes_total")),
		DiskBusy:  busyDuration(reg.Sum("raid_disk_busy_seconds")),
		TapeIO:    int64(reg.Sum("tape_written_bytes_total") + reg.Sum("tape_read_bytes_total")),
		TapeBusy:  busyDuration(reg.Sum("tape_busy_seconds")),
	}
}

// Stage is one measured phase of an operation.
type Stage struct {
	Name  string
	Begin Sample
	End   Sample
}

// Elapsed returns the stage's wall (virtual) time.
func (s *Stage) Elapsed() time.Duration { return s.End.T - s.Begin.T }

// CPUUtil returns the fraction of the stage the CPU was busy.
func (s *Stage) CPUUtil() float64 {
	if s.Elapsed() <= 0 {
		return 0
	}
	return float64(s.End.CPUBusy-s.Begin.CPUBusy) / float64(s.Elapsed())
}

// DiskMBps returns aggregate disk traffic over the stage in MB/s.
func (s *Stage) DiskMBps() float64 {
	if s.Elapsed() <= 0 {
		return 0
	}
	bytes := (s.End.DiskRead - s.Begin.DiskRead) + (s.End.DiskWrite - s.Begin.DiskWrite)
	return float64(bytes) / s.Elapsed().Seconds() / (1 << 20)
}

// TapeMBps returns aggregate tape traffic over the stage in MB/s.
func (s *Stage) TapeMBps() float64 {
	if s.Elapsed() <= 0 {
		return 0
	}
	return float64(s.End.TapeIO-s.Begin.TapeIO) / s.Elapsed().Seconds() / (1 << 20)
}

// Recorder implements logical.StageRecorder over Meters and also
// serves the hand-placed stages (snapshot create/delete, image dump
// phases).
type Recorder struct {
	M      *Meters
	Stages []*Stage
	open   *Stage
}

// Begin opens a stage (closing any still-open one first).
func (r *Recorder) Begin(name string) {
	if r.open != nil {
		r.End()
	}
	r.open = &Stage{Name: name, Begin: r.M.Take()}
}

// End closes the open stage.
func (r *Recorder) End() {
	if r.open == nil {
		return
	}
	r.open.End = r.M.Take()
	r.Stages = append(r.Stages, r.open)
	r.open = nil
}

// OpResult summarizes one measured operation.
type OpResult struct {
	Name    string
	Elapsed time.Duration
	Bytes   int64 // payload moved (tape stream size)
	Stages  []*Stage
	CPUUtil float64
}

// MBps returns payload throughput in MB/s.
func (o *OpResult) MBps() float64 {
	if o.Elapsed <= 0 {
		return 0
	}
	return float64(o.Bytes) / o.Elapsed.Seconds() / (1 << 20)
}

// GBph returns payload throughput in GB/hour.
func (o *OpResult) GBph() float64 {
	if o.Elapsed <= 0 {
		return 0
	}
	return float64(o.Bytes) / (1 << 30) / o.Elapsed.Hours()
}

// FormatDuration renders a duration the way the paper does: hours with
// a decimal for long phases, minutes or seconds for short ones.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2f hours", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1f minutes", d.Minutes())
	default:
		return fmt.Sprintf("%.1f seconds", d.Seconds())
	}
}

// FormatOpsTable renders Table 2-style rows.
func FormatOpsTable(title string, ops []OpResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Operation\tElapsed time\tMBytes/second\tGBytes/hour\tCPU")
	for _, o := range ops {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.1f\t%.0f%%\n", o.Name, FormatDuration(o.Elapsed), o.MBps(), o.GBph(), 100*o.CPUUtil)
	}
	w.Flush()
	return b.String()
}

// FormatStagesTable renders Table 3-style rows (each operation's
// stages, with CPU utilization).
func FormatStagesTable(title string, ops []OpResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Stage\tTime spent\tCPU Utilization")
	for _, o := range ops {
		fmt.Fprintf(w, "%s\t\t\n", o.Name)
		for _, s := range o.Stages {
			fmt.Fprintf(w, "  %s\t%s\t%.0f%%\n", s.Name, FormatDuration(s.Elapsed()), 100*s.CPUUtil())
		}
	}
	w.Flush()
	return b.String()
}

// FormatParallelTable renders Table 4/5-style rows (each operation's
// stages, with CPU and disk/tape rates).
func FormatParallelTable(title string, ops []OpResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Operation\tElapsed time\tCPU Utilization\tDisk MB/s\tTape MB/s")
	for _, o := range ops {
		fmt.Fprintf(w, "%s\t\t\t\t\n", o.Name)
		for _, s := range o.Stages {
			fmt.Fprintf(w, "  %s\t%s\t%.0f%%\t%.2f\t%.2f\n",
				s.Name, FormatDuration(s.Elapsed()), 100*s.CPUUtil(), s.DiskMBps(), s.TapeMBps())
		}
	}
	w.Flush()
	return b.String()
}
