package flashsim

import (
	"math/rand"

	"leed/internal/obs"
	"leed/internal/runtime"
)

// LatencyShim adds an SSD performance model (service units, kind- and
// size-dependent service time) in front of any functional device, e.g. a
// AsyncFileDevice. Data still lands in the inner device; timing follows the
// Spec. This lets cmd/leedctl benchmark a persistent image with DCT983-like
// latencies.
type LatencyShim struct {
	env   runtime.Env
	inner Device
	spec  Spec
	rng   *rand.Rand

	busy    int
	waiting []*Op
}

// NewLatencyShim wraps inner with spec's timing model.
func NewLatencyShim(env runtime.Env, inner Device, spec Spec) *LatencyShim {
	if spec.Parallelism <= 0 {
		spec.Parallelism = 1
	}
	return &LatencyShim{env: env, inner: inner, spec: spec, rng: rand.New(rand.NewSource(spec.Seed + 0x5141))}
}

// Capacity returns the inner device's capacity.
func (d *LatencyShim) Capacity() int64 { return d.inner.Capacity() }

// Stats returns the inner device's counters.
func (d *LatencyShim) Stats() Stats { return d.inner.Stats() }

// Observe forwards the registry binding to the inner device.
func (d *LatencyShim) Observe(reg *obs.Registry, tr *obs.Tracer, dev string) {
	Observe(d.inner, reg, tr, dev)
}

func (d *LatencyShim) serviceTime(op *Op) runtime.Time {
	base := d.spec.ReadBase
	bw := d.spec.ReadBW
	if op.Kind == OpWrite {
		base = d.spec.WriteBase
		bw = d.spec.WriteBW
	}
	unitBW := bw / int64(d.spec.Parallelism)
	if unitBW <= 0 {
		unitBW = 1
	}
	svc := base + runtime.Time(int64(len(op.Data))*int64(runtime.Second)/unitBW)
	if d.spec.Jitter > 0 {
		svc = runtime.Time(float64(svc) * (1 + d.spec.Jitter*(2*d.rng.Float64()-1)))
	}
	if svc < 1 {
		svc = 1
	}
	return svc
}

// Submit queues the op behind the modeled service units, then forwards it
// to the inner device.
func (d *LatencyShim) Submit(op *Op) {
	if d.busy < d.spec.Parallelism {
		d.start(op)
		return
	}
	d.waiting = append(d.waiting, op)
}

func (d *LatencyShim) start(op *Op) {
	d.busy++
	d.env.After(d.serviceTime(op), func() {
		// Chain the inner (instant) completion into the caller's event.
		innerDone := d.env.MakeEvent()
		fwd := &Op{Kind: op.Kind, Offset: op.Offset, Data: op.Data, Done: innerDone}
		d.inner.Submit(fwd)
		innerDone.OnFire(func(v any) {
			d.busy--
			op.Done.Fire(v)
			if len(d.waiting) > 0 && d.busy < d.spec.Parallelism {
				next := d.waiting[0]
				d.waiting = d.waiting[1:]
				d.start(next)
			}
		})
	})
}
