package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// measured is what the blocks of one run recorded.
type measured struct {
	closed []sample // indexed like stream.closed
	// closedSpan[b] is block b's range of closed-loop op indices and
	// closedWall[b] its wall time.
	closedSpan [][2]int
	closedWall []time.Duration

	openOps []op
	open    []sample // indexed like stream.open
	// openBlock[i] is the block of open op i; openStart[b] the wall start
	// of block b's open slice.
	openBlock []int
	openStart []time.Duration

	writes []batch  // the feed's or the probe's batches, in send order
	wres   []sample // their samples

	// checks are the verdicts on the closed reads, then the open reads.
	checks []readCheck
}

// measure runs the workload's blocks — on live-traffic with the feed
// running through all of them — and then, on workloads without a feed,
// the closing write probe, and verifies every answer. openID names open
// op i of block b; the traced pass uses it to mark which requests its
// handler wrapper records. afterBlocks, when non-nil, runs as soon as the
// last block ends, before verification adds work of its own.
func (s *session) measure(openID func(i, block int) string, afterBlocks func() error) (*measured, error) {
	str, lg := s.str, s.lg
	m := &measured{
		closed:    make([]sample, len(str.closed)),
		open:      make([]sample, len(str.open)),
		openOps:   readOps("o", str.open),
		openBlock: make([]int, len(str.open)),
	}
	closedOps := readOps("c", str.closed)
	for i, d := range str.openDue {
		m.openBlock[i] = int(d / blockOpen)
		m.openOps[i].id = openID(i, m.openBlock[i])
	}

	var fd *feed
	if s.w.feed {
		var err error
		if fd, err = lg.startFeed(s.feedConn, batchOps("f", str.feed), str.feedDue, lg.now()); err != nil {
			return nil, err
		}
	}
	err := s.runBlocks(m, closedOps)
	if fd != nil {
		// Waited for even when a block failed, so no goroutine outlives
		// the run.
		var ferr error
		m.writes = str.feed
		m.wres, ferr = fd.wait()
		if err == nil {
			err = ferr
		}
	}
	if err == nil && afterBlocks != nil {
		err = afterBlocks()
	}
	if err != nil {
		return nil, err
	}
	reads := []readPhase{{str.closed, m.closed}, {str.open, m.open}}
	if fd != nil {
		m.checks = s.verifyReads(reads, s.verifyWrites(m.writes, m.wres))
		return m, nil
	}
	m.checks = s.verifyReads(reads, nil)
	// The probe starts from a settled heap, not from whatever collection
	// the last open slice left running: the verified bodies are dropped
	// and the garbage collected first.
	for _, ph := range reads {
		for i := range ph.res {
			ph.res[i].rep.body = nil
		}
	}
	runtime.GC()
	m.writes = str.probe
	m.wres = lg.sequential(s.conns[0], batchOps("p", str.probe))
	s.verifyWrites(m.writes, m.wres)
	return m, nil
}

// runBlocks runs the closed- and open-loop slices of every block.
func (s *session) runBlocks(m *measured, closedOps []op) error {
	str, lg := s.str, s.lg
	// Each block owns an equal share of the closed-loop ops. A block that
	// uses its share up before blockClosed has passed ends early; its rate
	// is still its completed reads over the wall time they took.
	quota := len(closedOps) / s.blocks
	lo := 0
	for b := 0; b < s.blocks; b++ {
		from, to := b*quota, (b+1)*quota
		var next atomic.Int64
		m.closedWall = append(m.closedWall, lg.closed(s.conns, closedOps[from:to], m.closed[from:to], &next, blockClosed))
		m.closedSpan = append(m.closedSpan, [2]int{from, from + min(int(next.Load()), quota)})

		hi := lo
		for hi < len(str.openDue) && m.openBlock[hi] == b {
			hi++
		}
		due := make([]time.Duration, hi-lo)
		for i := range due {
			due[i] = str.openDue[lo+i] - time.Duration(b)*blockOpen
		}
		start := lg.now()
		m.openStart = append(m.openStart, start)
		res, err := lg.open(s.conns, m.openOps[lo:hi], due, start)
		if err != nil {
			return err
		}
		copy(m.open[lo:hi], res)
		lo = hi
	}
	return nil
}

// capacity is each block's completed closed-loop reads per second.
func (m *measured) capacity() (perBlock []float64, completed int) {
	for b, span := range m.closedSpan {
		n := 0
		for _, sm := range m.closed[span[0]:span[1]] {
			if sm.ok() {
				n++
			}
		}
		completed += n
		perBlock = append(perBlock, float64(n)/m.closedWall[b].Seconds())
	}
	return perBlock, completed
}

// blockMedian is the median over blocks of each block's median open-loop
// latency, for the open requests keep selects.
func (m *measured) blockMedian(keep func(i int) bool) float64 {
	byBlock := make([][]float64, len(m.openStart))
	for i := range m.open {
		if keep(i) {
			b := m.openBlock[i]
			byBlock[b] = append(byBlock[b], latencies(m.open[i:i+1])...)
		}
	}
	var p50s []float64
	for _, l := range byBlock {
		if len(l) > 0 {
			p50s = append(p50s, median(l))
		}
	}
	return median(p50s)
}

// visible is the due-to-200 latency of each write: on a live feed only
// the batches due inside an open slice, which met read load at the
// offered rate; the probe's batches all.
func (m *measured) visible(feed bool) []float64 {
	var out []float64
	for _, sm := range m.wres {
		if feed && !m.inOpenSlice(sm.due) {
			continue
		}
		out = append(out, latencies([]sample{sm})...)
	}
	return out
}

func (m *measured) inOpenSlice(t time.Duration) bool {
	for _, start := range m.openStart {
		if t >= start && t < start+blockOpen {
			return true
		}
	}
	return false
}
