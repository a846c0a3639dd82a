package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A host fast enough to use up a block's closed-loop requests before the
// slice ends must still get one well-formed span and a positive rate per
// block.
func TestClosedLoopQuotaUsedUp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	const blocks, quota = 3, 5
	s := &session{
		str:    &stream{closed: make([]read, blocks*quota)},
		lg:     &loadgen{epoch: time.Now()},
		conns:  []*conn{c},
		blocks: blocks,
	}
	m := &measured{closed: make([]sample, blocks*quota)}
	start := time.Now()
	if err := s.runBlocks(m, readOps("c", s.str.closed)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= blockClosed {
		t.Errorf("blocks took %v: a used-up slice should end early", d)
	}
	for b, span := range m.closedSpan {
		if span != [2]int{b * quota, (b + 1) * quota} {
			t.Errorf("block %d span %v, want [%d %d]", b, span, b*quota, (b+1)*quota)
		}
	}
	rates, completed := m.capacity()
	if completed != blocks*quota {
		t.Errorf("completed %d, want %d", completed, blocks*quota)
	}
	for b, r := range rates {
		if !(r > 0) {
			t.Errorf("block %d rate %v, want > 0", b, r)
		}
	}
}
