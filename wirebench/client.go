package main

import (
	"errors"
	"time"

	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/server"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// maxResendRounds bounds IngestAll's backpressure resends per frame.
const maxResendRounds = 200

// tally counts one connection's operations for failed_ops_ratio.
type tally struct {
	Attempted int `json:"attempted"` // Ingest frames, Syncs and queries issued
	Failed    int `json:"failed"`    // calls that returned an error (degraded acks excluded)
	Resends   int `json:"resends"`   // IngestAll resend rounds after a backpressure reject
	Degraded  int `json:"degraded"`  // frames answered with a degraded ack
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Resends += o.Resends
	t.Degraded += o.Degraded
}

// failedRatio is failed, rejected or degraded operations over attempted.
func (t tally) failedRatio() float64 {
	return ratio(float64(t.Failed+t.Resends+t.Degraded), float64(t.Attempted))
}

// conn is one generator connection: it times every call, counts
// outcomes and, when traced, records a span per call.
type conn struct {
	c     *server.Client
	tr    *tracer
	tally tally
	acked uint64
	req   int64
}

func newConn(c *server.Client, tr *tracer) *conn {
	k := &conn{c: c, tr: tr}
	c.Sleep = func(d time.Duration) {
		k.tally.Resends++
		time.Sleep(d)
	}
	return k
}

func (k *conn) count(err error) {
	k.tally.Attempted++
	switch {
	case errors.Is(err, server.ErrDegraded):
		k.tally.Degraded++
	case err != nil:
		k.tally.Failed++
	}
}

// ingest sends one frame through IngestAll (resends included) and
// returns the fixes the server accepted.
func (k *conn) ingest(fr []proto.DeviceBatch) (uint64, error) {
	k.req++
	s := k.tr.begin("client.ingest", -1, k.req)
	n, err := k.c.IngestAll(fr, maxResendRounds)
	k.tr.end(s)
	k.count(err)
	k.acked += n
	return n, err
}

func (k *conn) sync(flush bool) error {
	k.req++
	name := "client.sync"
	if flush {
		name = "client.sync_flush"
	}
	s := k.tr.begin(name, -1, k.req)
	err := k.c.Sync(flush)
	k.tr.end(s)
	k.count(err)
	return err
}

func (k *conn) query(w window) ([]trajstore.PersistedRecord, error) {
	k.req++
	s := k.tr.begin("client.query", -1, k.req)
	recs, err := k.c.QueryWindow(w.minLon, w.minLat, w.maxLon, w.maxLat, w.t0, w.t1)
	k.tr.end(s)
	k.count(err)
	return recs, err
}

func (k *conn) close() { _ = k.c.Close() } // requests are all answered by now
