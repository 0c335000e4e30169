package main

import "time"

// refKernelBuf is larger than the caches of the reference box (16 MB).
var refKernelBuf []uint64

// refKernel times a fixed memory-bound loop, a strided walk over
// refKernelBuf, in ms. The traced run takes a sample between passes, at
// most one a second, and reports the median as harness.ref_kernel_ms,
// to tell "the machine was slow" from "the code was slow". It qualifies
// a run and corrects nothing: every timing metric is reported as
// measured.
func refKernel() float64 {
	if refKernelBuf == nil {
		refKernelBuf = make([]uint64, 1<<21)
	}
	t0 := time.Now()
	var acc uint64
	for rep := 0; rep < 24; rep++ {
		for i := 0; i < len(refKernelBuf); i += 8 { // one word per cache line
			refKernelBuf[i] += acc
			acc += refKernelBuf[i] + uint64(i)
		}
	}
	return ms(time.Since(t0))
}
