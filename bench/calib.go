package main

import (
	"runtime"
	"sync"
	"time"
)

// The box this benchmark was written on (2 vCPUs of a shared host) runs
// 1.2 to 1.7 times slower for seconds to minutes at a time, both vCPUs
// together: a loop of fixed arithmetic that takes 0.245 ms takes 0.40 ms
// during such an episode, CPU time moving with wall time. A run that falls
// into one reads that much slower whatever it samples, so every timed
// section (a round, a set-up) is bracketed by two runs of that loop, taken
// while no op is in flight and nothing else of this process is runnable,
// and its CPU-bound times are divided by how slow the loop ran. Reported
// times are therefore "at reference speed": what the section takes when
// the loop takes refKernelMS, which is this box when quiet. The loop is the
// benchmark's own code and never runs beside the program under test, so a
// change to the program cannot move it. The header line carries the raw
// readings beside the scaled ones.
const (
	refKernelMS = 0.25
	kernelLen   = 8192 // float64s: 64 KiB, resident in L2
	kernelReps  = 40

	calibrateSegment = 5 * time.Millisecond  // between a round's segments
	calibrateSetup   = 25 * time.Millisecond // before and after a set-up
)

func kernel(buf []float64) float64 {
	s := 0.0
	for r := 0; r < kernelReps; r++ {
		for i := range buf {
			s += buf[i]*1.0000001 + 0.5
			buf[i] = s * 1e-9
		}
	}
	return s
}

// kernelBufs is one buffer per P, kept between calibrations so that they
// allocate nothing beside the program under test; kernelSink keeps the
// kernel's result alive. calibrate is never called from two goroutines.
var (
	kernelBufs [][]float64
	kernelSink float64
)

// calibrate times the kernel on every P at once for d and returns the mean
// over the Ps of each P's median run, in milliseconds. The median drops the
// runs a P lost outright to another tenant or to the scheduler; an episode
// that slows every run moves it in full.
func calibrate(d time.Duration) float64 {
	for len(kernelBufs) < runtime.GOMAXPROCS(0) {
		kernelBufs = append(kernelBufs, make([]float64, kernelLen))
	}
	medians := make([]float64, len(kernelBufs))
	sinks := make([]float64, len(kernelBufs))
	var wg sync.WaitGroup
	for p, buf := range kernelBufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples := make([]float64, 0, 256)
			for start := time.Now(); time.Since(start) < d; {
				t0 := time.Now()
				sinks[p] += kernel(buf)
				samples = append(samples, ms(time.Since(t0)))
			}
			medians[p] = quantile(samples, 0.5)
		}()
	}
	wg.Wait()
	kernelSink += sum(sinks)
	return mean(medians)
}

// slowdown is how much slower than reference speed the machine ran over a
// section, from the calibrations around and inside it.
func slowdown(kernel ...float64) float64 { return mean(kernel) / refKernelMS }
