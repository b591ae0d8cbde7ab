package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. On a small virtual machine an idle virtual CPU halts, and
// waking it costs a trip through the host's scheduler: tens of microseconds
// that vary with what else the host is doing. A call with nothing else in
// flight crosses such a wake-up at every hand-off between threads, so on two
// virtual CPUs its latency is mostly the host's (a loopback GET took 75 us on
// the two CPUs of the box this was written on, 22 us on one of them) and
// repeats badly. The lat phase therefore
// runs with the generator and every SUT process on one CPU, each with one P:
// a hand-off inside a process is a run-queue operation, one between processes
// a plain context switch, the CPU never halts in the middle of a call, and
// what is timed is the program's own path. One CPU with the default
// GOMAXPROCS was tried too and repeats worse than no placement at all: idle
// Ps are woken to steal work they cannot run. The sat phase gets every CPU
// and every P back.

// cpuSet is a sched_setaffinity mask (1024 CPUs).
type cpuSet [16]uint64

func (m *cpuSet) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func (m *cpuSet) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			out = append(out, c)
		}
	}
	return out
}

func single(cpu int) cpuSet {
	var m cpuSet
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

// allowedCPUs is the mask this process started with.
func allowedCPUs() (cpuSet, error) {
	var m cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setThreadAffinity(tid int, m *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// setProcessAffinity moves every thread of every pid onto m. The mask is per
// thread and a new thread starts with its creator's, so passes repeat until
// one finds no thread it has not moved yet.
func setProcessAffinity(pids []int, m *cpuSet) error {
	seen := map[int]bool{}
	for pass := 0; pass < 8; pass++ {
		fresh := 0
		for _, pid := range pids {
			tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
			if err != nil {
				return err
			}
			for _, t := range tasks {
				tid, err := strconv.Atoi(t.Name())
				if err != nil || seen[tid] {
					continue
				}
				seen[tid] = true
				fresh++
				// A thread that exited since the listing is nobody's problem.
				if err := setThreadAffinity(tid, m); err != nil && err != syscall.ESRCH {
					return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
				}
			}
		}
		if fresh == 0 {
			return nil
		}
	}
	return nil
}

// defaultProcs is the GOMAXPROCS this process started with.
var defaultProcs = runtime.GOMAXPROCS(0)

// setProcs sets this process's GOMAXPROCS; 0 restores what it started with.
func setProcs(n int) {
	if n <= 0 {
		n = defaultProcs
	}
	runtime.GOMAXPROCS(n)
}

// confine(true) puts this process and every live child on one CPU — the
// last one this process may use; the first takes most interrupts — with one
// P each. confine(false) gives them back every CPU and their own GOMAXPROCS.
// A host that refuses sched_setaffinity gets a warning and an unplaced run.
func (h *harness) confine(on bool) error {
	h.mu.Lock()
	children := append([]*child(nil), h.children...)
	h.mu.Unlock()
	if h.allowed == nil {
		m, err := allowedCPUs()
		if err != nil {
			return err
		}
		h.allowed = &m
	}
	mask, procs := *h.allowed, 0
	if on {
		cpus := mask.cpus()
		mask, procs = single(cpus[len(cpus)-1]), 1
	}
	pids := []int{os.Getpid()}
	for _, c := range children {
		pids = append(pids, c.cmd.Process.Pid)
	}
	if err := setProcessAffinity(pids, &mask); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: no CPU placement, latencies will include cross-CPU wake-ups: %v\n", err)
	}
	setProcs(procs)
	for _, c := range children {
		if err := c.call("procs "+strconv.Itoa(procs), &struct{}{}); err != nil {
			return err
		}
	}
	return nil
}
