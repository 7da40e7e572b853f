package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"github.com/xqdb/xqdb"
)

// span is one timed call, recorded by the benchmark around a call into
// the program (or copied from the engine's own Stats.Trace). Times are
// nanoseconds since the run's epoch; every span of one request shares
// Req, and Parent is the ID of the enclosing span (-1 for the request).
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog is one client goroutine's trace: its spans plus running
// per-name totals. Only its own goroutine writes it.
type spanLog struct {
	epoch time.Time
	req   int64 // next request id; clients draw from disjoint ranges
	spans []span
	// totals sums span durations by name (ns), selfDB the self time of
	// the DB-call spans; reqs counts traced requests.
	totals map[string]int64
	selfDB int64
	reqs   int64
}

func newSpanLog(epoch time.Time, client int) *spanLog {
	return &spanLog{epoch: epoch, req: int64(client) << 40, totals: map[string]int64{}}
}

func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// request opens a request and returns its root span's index.
func (l *spanLog) request(name string, start, end time.Time) int {
	l.req++
	l.reqs++
	return l.add(name, -1, start, end)
}

// add records a span of the current request under parent.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	return l.addNS(name, parent, l.at(start), l.at(end))
}

func (l *spanLog) addNS(name string, parent int, start, end int64) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{Req: l.req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	l.totals[name] += end - start
	return id
}

// dbCall records the DB call at [start, end) and hangs the engine's
// trace spans under it. The engine times its spans from a clock it
// starts inside the call, a little after start, so placing them at
// start + offset shifts them by at most that gap and keeps them inside
// the call. The call's self time — the part no engine span covers — is
// accumulated as the untraced engine time.
func (l *spanLog) dbCall(name string, parent int, start, end time.Time, stats *xqdb.Stats) {
	id := l.add(name, parent, start, end)
	s0, s1 := l.at(start), l.at(end)
	var kids [][2]int64
	if stats != nil && stats.Trace != nil {
		for _, es := range stats.Trace.Spans {
			a := s0 + int64(es.Start)
			b := min(a+int64(es.Dur), s1)
			l.addNS("engine."+es.Name, id, a, b)
			kids = append(kids, [2]int64{a, b})
		}
	}
	l.selfDB += (s1 - s0) - covered(kids)
}

// covered returns the length of the union of intervals; engine spans of
// parallel stages overlap, so their plain sum would overstate coverage.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		if first || x[0] > end {
			first = false
			total += x[1] - x[0]
			end = x[1]
			continue
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// checkSelfTimes verifies, request by request, that each DB-call span
// equals the union of its engine children plus its self time, and that
// every child lies inside its parent. It returns the number of requests
// that violate either.
func checkSelfTimes(spans []span) int {
	type key struct {
		req int64
		id  int
	}
	kids := map[key][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[key{s.Req, s.Parent}] = append(kids[key{s.Req, s.Parent}], [2]int64{s.Start, s.End})
		}
	}
	bad := map[int64]bool{}
	for _, s := range spans {
		iv := kids[key{s.Req, s.ID}]
		for _, c := range iv {
			if c[0] < s.Start || c[1] > s.End || c[1] < c[0] {
				bad[s.Req] = true
			}
		}
		if c := covered(iv); c > s.dur() {
			bad[s.Req] = true
		}
	}
	return len(bad)
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, logs []*spanLog) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
