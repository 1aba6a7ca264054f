package obs

import "cham/internal/vec"

// cham_kernel_impl{impl=…} 1 is an info gauge naming the row-kernel
// implementation this process dispatches to (vec.ImplIFMA or
// vec.ImplGeneric; internal/vec picks once from CPUID), registered eagerly
// so every scrape carries it: two hosts' cham_hmvp_stage_seconds are only
// comparable when this label matches.
func init() {
	GetGauge("cham_kernel_impl",
		"Row-kernel implementation in use (info gauge: the impl label carries the value).",
		"impl", vec.Impl()).Set(1)
}
