package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/synth"
	"github.com/trajcomp/bqs/internal/trajstore"
)

const (
	areaM   = 10000 // side of the square every device roams, metres (the paper's synthetic model)
	noiseM  = 3     // GPS noise σ, metres
	mPerDeg = 1e5   // bqsd's default metres per degree: X = lon·1e5, Y = lat·1e5
)

var (
	turnDist  = synth.VonMises{Kappa: 4}
	moveDist  = synth.Exponential{Mean: 20}
	waitDist  = synth.Exponential{Mean: 8}
	speedDist = synth.BatSpeeds()
)

// walker is one device of the fleet: the event-based correlated random
// walk of internal/synth (alternating exponential waits and moves, bat
// speeds, von Mises turns, reflection at the area border) plus white GPS
// noise, advanced one 1 Hz fix at a time so thousands of devices can
// stream for minutes without materialising their history.
type walker struct {
	rng                   *rand.Rand
	x, y, heading, vx, vy float64
	left                  float64 // seconds left in the current event
	moving                bool
	t                     uint32 // timestamp of the next fix, seconds
}

func newWalker(seed int64, dev int) *walker {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(dev)))
	return &walker{
		rng:     r,
		x:       areaM * (0.35 + 0.3*r.Float64()),
		y:       areaM * (0.35 + 0.3*r.Float64()),
		heading: r.Float64() * 2 * math.Pi,
		left:    waitDist.Sample(r),
		t:       uint32(r.Intn(60)),
	}
}

// next returns the device's next fix as the wire carries it: quantized
// to the 1e-7° grid, so the value recorded here is exactly the value
// bqsd decodes.
func (w *walker) next() trajstore.GeoKey {
	for w.left <= 0 {
		w.moving = !w.moving
		if w.moving {
			w.heading += turnDist.Sample(w.rng)
			s := speedDist.Sample(w.rng)
			w.vx, w.vy = math.Cos(w.heading)*s, math.Sin(w.heading)*s
			w.left = moveDist.Sample(w.rng)
		} else {
			w.vx, w.vy = 0, 0
			w.left = waitDist.Sample(w.rng)
		}
	}
	w.left--
	w.x, w.vx = reflect(w.x+w.vx, w.vx)
	w.y, w.vy = reflect(w.y+w.vy, w.vy)
	ox := w.x + w.rng.NormFloat64()*noiseM
	oy := w.y + w.rng.NormFloat64()*noiseM
	k := trajstore.GeoKey{Lat: wireDeg(oy / mPerDeg), Lon: wireDeg(ox / mPerDeg), T: w.t}
	w.t++
	return k
}

// reflect keeps a coordinate inside [0, areaM], flipping its velocity
// at the border like synth.Walk.
func reflect(p, v float64) (float64, float64) {
	switch {
	case p < 0:
		return -p, -v
	case p > areaM:
		return 2*areaM - p, -v
	}
	return p, v
}

// wireDeg rounds degrees to the wire format's 1e-7° grid.
func wireDeg(d float64) float64 { return math.Round(d*1e7) / 1e7 }

// fleet is a seeded set of devices. Devices in sample keep every fix
// the server acknowledged, for the error-bound check.
type fleet struct {
	names   []string
	walkers []*walker
	sample  map[string]bool
	sent    map[string][]trajstore.GeoKey
}

// newFleet builds n devices named prefix-NNNNN and picks nSample of
// them, by seed, whose acknowledged fixes are kept. Fleets that share a
// server take different seeds.
func newFleet(seed int64, prefix string, n, nSample int) *fleet {
	f := &fleet{sample: map[string]bool{}, sent: map[string][]trajstore.GeoKey{}}
	for d := 0; d < n; d++ {
		f.names = append(f.names, fmt.Sprintf("%s-%05d", prefix, d))
		f.walkers = append(f.walkers, newWalker(seed, d))
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, d := range r.Perm(n)[:min(nSample, n)] {
		f.sample[f.names[d]] = true
	}
	return f
}

// frame builds one Ingest frame: per fixes for each device in [lo, hi).
func (f *fleet) frame(lo, hi, per int) []proto.DeviceBatch {
	out := make([]proto.DeviceBatch, 0, hi-lo)
	keys := make([]trajstore.GeoKey, (hi-lo)*per)
	for d := lo; d < hi; d++ {
		ks := keys[:per:per]
		keys = keys[per:]
		w := f.walkers[d]
		for i := range ks {
			ks[i] = w.next()
		}
		out = append(out, proto.DeviceBatch{Device: f.names[d], Keys: ks})
	}
	return out
}

// skip advances every device's clock by gap seconds: the fleet goes
// quiet between reporting bursts.
func (f *fleet) skip(gap uint32) {
	for _, w := range f.walkers {
		w.t += gap
	}
}

// acked records the fixes of sampled devices once the server accepted
// the frame carrying them.
func (f *fleet) acked(frame []proto.DeviceBatch) {
	for _, b := range frame {
		if f.sample[b.Device] {
			f.sent[b.Device] = append(f.sent[b.Device], b.Keys...)
		}
	}
}

// sweep is the frame order every workload uses: the fleet in groups of
// group devices, per fixes each, one group per frame; after each full
// sweep the fleet's clock skips gap seconds.
type sweep struct {
	f          *fleet
	group, per int
	gap        uint32
	next       int // next group's first device
}

// frame returns the next frame and whether it ends a sweep.
func (s *sweep) frame() ([]proto.DeviceBatch, bool) {
	n := len(s.f.names)
	lo, hi := s.next, min(s.next+s.group, n)
	fr := s.f.frame(lo, hi, s.per)
	s.next = hi
	if hi < n {
		return fr, false
	}
	s.next = 0
	s.f.skip(s.gap)
	return fr, true
}

// produce runs the sweep on its own goroutine, one frame ahead of the
// sender, so generating fixes overlaps the wait for the previous ack.
// Closing stop ends it; the returned channel is closed once it exits.
func (s *sweep) produce(stop <-chan struct{}) <-chan sweepFrame {
	out := make(chan sweepFrame, 1)
	go func() {
		defer close(out)
		for {
			fr, last := s.frame()
			select {
			case out <- sweepFrame{fr, last}:
			case <-stop:
				return
			}
		}
	}()
	return out
}

type sweepFrame struct {
	batches []proto.DeviceBatch
	last    bool // the frame completes a sweep over the fleet
}

// window is one spatio-temporal window query, in wire degrees.
type window struct {
	minLon, minLat, maxLon, maxLat float64
	t0, t1                         uint32
}

// windowGen draws 500 m × 10 min windows over [t0, t1): centres follow
// the fleet's density (the walks start in the middle of the area).
type windowGen struct {
	rng    *rand.Rand
	t0, t1 uint32
}

func (g *windowGen) draw() window {
	c := func() float64 {
		v := areaM/2 + g.rng.NormFloat64()*areaM/6
		return math.Max(250, math.Min(areaM-250, v))
	}
	x, y := c(), c()
	span := uint32(600)
	t0 := g.t0
	if g.t1 > g.t0+span {
		t0 += uint32(g.rng.Int63n(int64(g.t1 - g.t0 - span)))
	}
	return window{
		minLon: (x - 250) / mPerDeg, maxLon: (x + 250) / mPerDeg,
		minLat: (y - 250) / mPerDeg, maxLat: (y + 250) / mPerDeg,
		t0: t0, t1: t0 + span,
	}
}
