package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// yardRef is a typical yardstick CPU time on the 2-vCPU machine the
// benchmark was sized on. Timings are reported as if every phase of a run
// had read it with the whole machine available (see yardPair).
const yardRef = 14 * time.Millisecond

// yardReading is one yardstick reading: the median over five repetitions of
// each part's wall time; the median over the repetitions of their thread CPU
// time, all three parts together; and the share of the reading's wall time
// the thread was running.
type yardReading struct {
	chase, sort, alloc time.Duration
	cpu                time.Duration
	avail              float64
}

func (y yardReading) total() time.Duration { return y.chase + y.sort + y.alloc }

func (y yardReading) String() string {
	return fmt.Sprintf("%.2f+%.2f+%.2f/%.2f/%.2f", ms(y.chase), ms(y.sort), ms(y.alloc), ms(y.cpu), y.avail)
}

// yardPair is the yardstick around one phase of a run (the set-ups, or one
// episode): the mean of the readings taken just before and just after it.
type yardPair struct {
	cpu   time.Duration
	avail float64
}

func around(before, after yardReading) yardPair {
	return yardPair{cpu: (before.cpu + after.cpu) / 2, avail: (before.avail + after.avail) / 2}
}

// cpuScale is what CPU time measured during the phase is divided by to read
// as if the yardstick's CPU time had been yardRef: the host's memory speed.
func (y yardPair) cpuScale() float64 { return float64(y.cpu) / float64(yardRef) }

// wallScale is what wall-clock time measured during the phase is divided by
// (a rate multiplied by): the memory speed, and the share of time the
// hypervisor left the machine.
func (y yardPair) wallScale() float64 { return y.cpuScale() / y.avail }

// yardstick times a fixed piece of single-threaded work that calls none of
// the program's code, so no change to the program can move it. The shared
// host this benchmark was sized on alternates between fast and slow phases
// lasting minutes. In some, every workload's rounds/s and CPU per round move
// together by up to 2x while a register-only integer loop stays flat: those
// slow memory, not the processor. In others the hypervisor steals up to a
// third of the machine's time for minutes, and wall-clock figures fall by
// more than that. So the work is memory-bound — a dependent random walk
// through 8 MiB (outside the Go heap, so it does not change the collector's
// pace), a sort and a burst of small allocations with a JSON round trip —
// and it is timed on the wall clock, which sees both kinds of phase, and on
// the thread's CPU clock, which sees only the first, as CPU per round does.
func yardstick() yardReading {
	// Collections off while timing: the work's cost must not depend on the
	// heap the program left behind, which sets the collector's pace.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	// One OS thread for the whole reading, so its CPU clock is the work's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var parts [3][]time.Duration
	var cpu []time.Duration
	var cpuSum, wallSum time.Duration
	for i := 0; i < 5; i++ {
		c0, w0 := threadCPU(), time.Now()
		for p, f := range []func(){yardChase, yardSort, yardAlloc} {
			t := time.Now()
			f()
			parts[p] = append(parts[p], time.Since(t))
		}
		c := threadCPU() - c0
		cpu = append(cpu, c)
		cpuSum += c
		wallSum += time.Since(w0)
	}
	return yardReading{chase: median(parts[0]), sort: median(parts[1]), alloc: median(parts[2]),
		cpu: median(cpu), avail: min(1, float64(cpuSum)/float64(wallSum))}
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// threadCPU is the calling OS thread's user+sys CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for the calling thread
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var (
	yardSink  int
	chaseRing []uint32 // a single random cycle through every slot
)

func yardChase() {
	if chaseRing == nil {
		chaseRing = newChaseRing(1 << 21)
	}
	p := uint32(0)
	for i := 0; i < 1<<16; i++ {
		p = chaseRing[p]
	}
	yardSink += int(p)
}

// newChaseRing builds a single-cycle permutation (Sattolo's algorithm) in
// anonymous memory that the Go collector never scans or counts.
func newChaseRing(n int) []uint32 {
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	var ring []uint32
	if err != nil {
		ring = make([]uint32, n) // no mmap: fall back to the heap
	} else {
		ring = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	}
	for i := range ring {
		ring[i] = uint32(i)
	}
	r := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

func yardSort() {
	r := rand.New(rand.NewSource(2))
	v := make([]int, 30000)
	for i := range v {
		v[i] = r.Int()
	}
	sort.Ints(v)
	yardSink += v[0]
}

type yardRec struct {
	ID   string
	Cost float64
	PoS  map[string]float64
}

func yardAlloc() {
	recs := make([]*yardRec, 0, 4000)
	for i := 0; i < cap(recs); i++ {
		k := "user-" + strconv.Itoa(i)
		recs = append(recs, &yardRec{ID: k, Cost: float64(i), PoS: map[string]float64{"t1": 0.5, "t2": 0.7}})
	}
	b, _ := json.Marshal(recs[:500]) // plain structs: cannot fail
	var back []yardRec
	_ = json.Unmarshal(b, &back)
	yardSink += len(recs) + len(back)
}
