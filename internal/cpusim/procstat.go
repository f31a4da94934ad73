package cpusim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The paper obtains average CPU utilization from the /proc/stat interface:
// "The first 'cpu' line aggregates the numbers in all of the other 'cpuN'
// lines ... The numbers identify the amount of time the CPU has spent
// performing different kinds of work." This file reproduces that code
// path: the simulator renders before/after /proc/stat snapshots from its
// per-core busy times, and the analysis parses them back exactly the way
// a measurement script would.
//
// The render and parse sides sit on the Fig 4 hot path (two renders and
// two parses per simulated run), so both work out of reused buffers:
// rendering appends digits into a per-snapshot byte buffer instead of
// fmt-formatting every line, and parsing fills pooled maps with a
// zero-copy field scanner instead of strings.Fields.

// jiffiesPerSecond is the classic USER_HZ.
const jiffiesPerSecond = 100

// StatSnapshot is a /proc/stat-style accounting of per-core jiffies.
type StatSnapshot struct {
	// User, System, Idle are per-logical-core cumulative jiffy counts.
	User, System, Idle []uint64

	// buf is the reused Render working buffer.
	buf []byte
}

// NewStatSnapshot returns a zeroed snapshot for the given core count.
func NewStatSnapshot(cores int) *StatSnapshot {
	return &StatSnapshot{
		User:   make([]uint64, cores),
		System: make([]uint64, cores),
		Idle:   make([]uint64, cores),
	}
}

// Advance accumulates `seconds` of wall time during which core i was busy
// for utilization fraction util[i] (splitting busy time 90/10 between user
// and system, as a compute-bound BLAS run does).
func (s *StatSnapshot) Advance(seconds float64, util []float64) error {
	if len(util) != len(s.User) {
		return fmt.Errorf("cpusim: utilization vector has %d cores, snapshot has %d", len(util), len(s.User))
	}
	for i, u := range util {
		if u < 0 || u > 1 {
			return fmt.Errorf("cpusim: core %d utilization %v out of [0,1]", i, u)
		}
		busy := seconds * u * jiffiesPerSecond
		s.User[i] += uint64(busy * 0.9)
		s.System[i] += uint64(busy * 0.1)
		s.Idle[i] += uint64(seconds * (1 - u) * jiffiesPerSecond)
	}
	return nil
}

// appendJiffies appends " <user> 0 <system> <idle> 0 0 0\n" — the
// canonical field order (user nice system idle iowait irq softirq) with
// the fields the simulator does not model held at zero.
func appendJiffies(b []byte, user, system, idle uint64) []byte {
	b = append(b, ' ')
	b = strconv.AppendUint(b, user, 10)
	b = append(b, " 0 "...)
	b = strconv.AppendUint(b, system, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, idle, 10)
	b = append(b, " 0 0 0\n"...)
	return b
}

// Render produces the /proc/stat text: one aggregate "cpu" line followed
// by one "cpuN" line per logical core. Only the returned string is
// allocated; the working buffer is reused across calls.
func (s *StatSnapshot) Render() string {
	var tu, ts, ti uint64
	for i := range s.User {
		tu += s.User[i]
		ts += s.System[i]
		ti += s.Idle[i]
	}
	b := s.buf[:0]
	b = append(b, "cpu "...)
	b = appendJiffies(b, tu, ts, ti)
	for i := range s.User {
		b = append(b, "cpu"...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = appendJiffies(b, s.User[i], s.System[i], s.Idle[i])
	}
	s.buf = b
	return string(b)
}

// parsedStat is one parsed per-core line.
type parsedStat struct{ busy, total uint64 }

// statField returns the next whitespace-separated field of line starting
// at *pos, advancing *pos past it; the empty string once the line is
// exhausted. Fields are substrings — no allocation.
func statField(line string, pos *int) string {
	i := *pos
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	start := i
	for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
		i++
	}
	*pos = i
	return line[start:i]
}

// parseProcStatInto extracts per-core busy/total jiffies from /proc/stat
// text into the caller's map, skipping the aggregate line.
func parseProcStatInto(text string, out map[int]parsedStat) error {
	clear(out)
	text = strings.TrimSpace(text)
	for len(text) > 0 {
		var line string
		if nl := strings.IndexByte(text, '\n'); nl >= 0 {
			line, text = text[:nl], text[nl+1:]
		} else {
			line, text = text, ""
		}
		pos := 0
		head := statField(line, &pos)
		// Count the remaining fields before committing to the line: short
		// lines are skipped, not rejected, whatever their content.
		nvals, tail := 0, pos
		for statField(line, &tail) != "" {
			nvals++
		}
		if nvals < 4 || !strings.HasPrefix(head, "cpu") || head == "cpu" {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(head, "cpu"))
		if err != nil {
			return fmt.Errorf("cpusim: bad cpu line %q: %w", line, err)
		}
		// user nice system idle iowait irq softirq [steal ...]; busy =
		// everything except idle and iowait.
		var busy, total uint64
		for i := 0; i < nvals; i++ {
			v, err := strconv.ParseUint(statField(line, &pos), 10, 64)
			if err != nil {
				return fmt.Errorf("cpusim: bad jiffy count in %q: %w", line, err)
			}
			total += v
			if i != 3 && i != 4 {
				busy += v
			}
		}
		out[idx] = parsedStat{busy: busy, total: total}
	}
	if len(out) == 0 {
		return fmt.Errorf("cpusim: no cpuN lines found")
	}
	return nil
}

// statParseScratch holds the reusable state of one utilization
// computation: the two parsed snapshots and the sorted index walk.
type statParseScratch struct {
	before, after map[int]parsedStat
	idxs          []int
}

var statScratchPool = sync.Pool{New: func() any {
	return &statParseScratch{
		before: map[int]parsedStat{},
		after:  map[int]parsedStat{},
	}
}}

// AvgUtilizationFromProcStat computes the average CPU utilization (a
// fraction in [0,1]) between two /proc/stat snapshots, exactly as the
// paper's methodology does: per-core busy-delta over total-delta, averaged
// over all logical cores.
func AvgUtilizationFromProcStat(before, after string) (float64, error) {
	sc := statScratchPool.Get().(*statParseScratch)
	defer statScratchPool.Put(sc)
	if err := parseProcStatInto(before, sc.before); err != nil {
		return 0, err
	}
	if err := parseProcStatInto(after, sc.after); err != nil {
		return 0, err
	}
	b, a := sc.before, sc.after
	if len(a) != len(b) {
		return 0, fmt.Errorf("cpusim: snapshots have different core counts (%d vs %d)", len(b), len(a))
	}
	// Sum in ascending core order: float addition is not associative, so
	// a map-order walk here would make the last ulp of the average depend
	// on Go's map iteration randomization.
	idxs := sc.idxs[:0]
	for idx := range b {
		idxs = append(idxs, idx)
	}
	sc.idxs = idxs
	sort.Ints(idxs)
	sum, cores := 0.0, 0
	for _, idx := range idxs {
		bs := b[idx]
		as, ok := a[idx]
		if !ok {
			return 0, fmt.Errorf("cpusim: core %d missing from second snapshot", idx)
		}
		db := float64(as.busy) - float64(bs.busy)
		dt := float64(as.total) - float64(bs.total)
		if dt <= 0 {
			return 0, fmt.Errorf("cpusim: core %d has no elapsed jiffies", idx)
		}
		sum += db / dt
		cores++
	}
	return sum / float64(cores), nil
}

// procScratch is the reusable state of one ProcStatPair rendering: the
// accumulating snapshot and the constant background-utilization vector.
type procScratch struct {
	snap       *StatSnapshot
	background []float64
}

// ProcStatPair renders the before/after /proc/stat texts for a run: the
// "before" snapshot reflects an arbitrary prior uptime, the "after" adds
// the run itself. Only the two returned strings are allocated on a warm
// machine; the snapshot state is pooled.
func (m *Machine) ProcStatPair(r *Result) (before, after string, err error) {
	cores := m.Spec.LogicalCores()
	ps, _ := m.procs.Get().(*procScratch)
	if ps == nil || len(ps.snap.User) != cores {
		ps = &procScratch{snap: NewStatSnapshot(cores), background: make([]float64, cores)}
		for i := range ps.background {
			ps.background[i] = 0.02
		}
	} else {
		s := ps.snap
		for i := range s.User {
			s.User[i], s.System[i], s.Idle[i] = 0, 0, 0
		}
	}
	defer m.procs.Put(ps)
	snap := ps.snap
	// Prior uptime: 100 s of 2% background activity on every core.
	if err := snap.Advance(100, ps.background); err != nil {
		return "", "", err
	}
	before = snap.Render()
	if err := snap.Advance(r.Seconds, r.CoreUtil); err != nil {
		return "", "", err
	}
	after = snap.Render()
	return before, after, nil
}
