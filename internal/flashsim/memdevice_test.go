package flashsim

import (
	"bytes"
	"testing"

	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/sim"
)

// backends returns a constructor for each runtime backend: the env and a
// function that runs it until its tasks are done.
func backends() map[string]func() (runtime.Env, func()) {
	return map[string]func() (runtime.Env, func()){
		"sim": func() (runtime.Env, func()) {
			k := sim.New()
			return k, func() { k.Run(); k.Close() }
		},
		"wallclock": func() (runtime.Env, func()) {
			env := wallclock.New()
			return env, env.Wait
		},
	}
}

// TestMemDeviceCompletesInSubmitOrder checks the MemDevice completion queue
// on both backends: ops complete in Submit order — ops submitted from inside
// a completion included — each Done fires exactly once, and when it fires a
// write's data is on the device and a read's buffer holds what the writes
// before it stored. An out-of-range op fails in its turn.
func TestMemDeviceCompletesInSubmitOrder(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			env, run := mk()
			d := NewMemDevice(env, 1<<20)
			const (
				initial = 12
				nested  = 3 // from the completions of ops 1 and 5, and of the first nested op
				total   = initial + nested
			)
			var submitted, completed []int
			fires := make([]int, total)
			allDone := env.MakeEvent()
			pattern := func(id int) []byte { return bytes.Repeat([]byte{byte(0x40 + id)}, 64+id) }
			offset := func(id int) int64 { return int64(id) * 4096 }

			var submit func(id int, op *Op)
			submit = func(id int, op *Op) {
				op.Done = env.MakeEvent()
				op.Done.OnFire(func(v any) {
					completed = append(completed, id)
					fires[id]++
					switch {
					case op.Offset < 0:
						if v == nil {
							t.Errorf("op %d: out-of-range op succeeded", id)
						}
					case v != nil:
						t.Errorf("op %d: %v", id, v)
					case op.Kind == OpWrite:
						got := make([]byte, len(op.Data))
						d.SyncRead(got, op.Offset)
						if !bytes.Equal(got, op.Data) {
							t.Errorf("op %d: write not on the device when Done fired", id)
						}
					case op.Kind == OpRead:
						if want := pattern(int(op.Offset / 4096)); !bytes.Equal(op.Data, want) {
							t.Errorf("op %d: read %x, want %x", id, op.Data[:4], want[:4])
						}
					}
					switch id {
					case 1:
						submit(initial, &Op{Kind: OpWrite, Offset: offset(initial), Data: pattern(initial)})
					case 5:
						submit(initial+1, &Op{Kind: OpRead, Offset: offset(2), Data: make([]byte, len(pattern(2)))})
					case initial:
						submit(initial+2, &Op{Kind: OpRead, Offset: offset(initial), Data: make([]byte, len(pattern(initial)))})
					}
					if len(completed) == total {
						allDone.Fire(nil)
					}
				})
				submitted = append(submitted, id)
				d.Submit(op)
			}

			env.Spawn("submitter", func(p runtime.Task) {
				for id := 0; id < initial; id++ {
					switch {
					case id == 7:
						submit(id, &Op{Kind: OpWrite, Offset: -1, Data: []byte{1}})
					case id%3 == 2 && id > 2:
						// Read back an earlier write, queued behind it.
						src := id - 1
						if src == 7 {
							src = 6
						}
						submit(id, &Op{Kind: OpRead, Offset: offset(src), Data: make([]byte, len(pattern(src)))})
					default:
						submit(id, &Op{Kind: OpWrite, Offset: offset(id), Data: pattern(id)})
					}
				}
				p.Wait(allDone)
			})
			run()

			if len(completed) != total {
				t.Fatalf("%d of %d ops completed", len(completed), total)
			}
			for i := range submitted {
				if completed[i] != submitted[i] {
					t.Fatalf("completion order %v, submit order %v", completed, submitted)
				}
			}
			for id, n := range fires {
				if n != 1 {
					t.Errorf("op %d: Done fired %d times", id, n)
				}
			}
		})
	}
}
