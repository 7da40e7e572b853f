package main

import (
	"fmt"
	"sync"
	"time"
)

// clientLog is what one client goroutine records during a timed phase.
// Only that goroutine writes it; the phase reads it after the join.
type clientLog struct {
	lat     []float64 // per-query latency, ms
	byShape map[string][]float64
	failures
	renderBytes int64
	spans       *spanLog  // traced phases only
	lag         []float64 // open loop: how late each send ran, ms
	overhead    []float64 // http: round trip minus server elapsed, ms
}

func (c *clientLog) record(shape string, ms float64) {
	c.lat = append(c.lat, ms)
	if c.byShape == nil {
		c.byShape = map[string][]float64{}
	}
	c.byShape[shape] = append(c.byShape[shape], ms)
}

// failures counts failed operations and keeps the first one's message.
type failures struct {
	n     int64
	first string
}

func (f *failures) fail(format string, args ...any) {
	f.n++
	if f.first == "" {
		f.first = fmt.Sprintf(format, args...)
	}
}

// queryFunc runs one query and returns its row count and rendered bytes;
// a non-nil span log asks it to record the request's spans.
type queryFunc func(q query, l *spanLog) (rows, bytes int, err error)

// phase is the merged record of one timed phase.
type phase struct {
	lat         []float64
	byShape     map[string][]float64
	failed      int64
	renderBytes int64
	secs        float64
	logs        []*clientLog
}

func (p *phase) ops() int64 { return int64(len(p.lat)) + p.failed }

func merge(logs []*clientLog, secs float64) *phase {
	p := &phase{secs: secs, logs: logs, byShape: map[string][]float64{}}
	for _, l := range logs {
		p.lat = append(p.lat, l.lat...)
		for k, v := range l.byShape {
			p.byShape[k] = append(p.byShape[k], v...)
		}
		p.failed += l.n
		p.renderBytes += l.renderBytes
	}
	return p
}

// closedLoop runs one goroutine per stream until the deadline; each
// sends its next query only after the previous one returned. A wrong
// row count (against the first count seen for the text) is a failure.
func closedLoop(d time.Duration, streams []stream, run queryFunc, ans *answers, traced bool, epoch time.Time) *phase {
	logs := make([]*clientLog, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range streams {
		logs[i] = &clientLog{}
		if traced {
			logs[i].spans = newSpanLog(epoch, i)
		}
		wg.Add(1)
		go func(s stream, cl *clientLog) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := s.next()
				t0 := time.Now()
				rows, bytes, err := run(q, cl.spans)
				ms := float64(time.Since(t0)) / 1e6
				switch {
				case err != nil:
					cl.fail("%s: %v", q.shape, err)
				case !ans.observe(q, rows):
					cl.fail("%s: row count changed: %s", q.shape, q.text)
				default:
					cl.record(q.shape, ms)
					cl.renderBytes += int64(bytes)
				}
			}
		}(streams[i], logs[i])
	}
	wg.Wait()
	return merge(logs, time.Since(start).Seconds())
}
