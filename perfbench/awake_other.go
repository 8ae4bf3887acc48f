//go:build !linux

package main

// awakeEnv marks the child process keepAwake would start; no such child is
// started on this platform.
const awakeEnv = "PERFBENCH_AWAKE"

// keepAwake does nothing here: SCHED_IDLE is Linux's.
func keepAwake(cpus int) (func(), error) { return func() {}, nil }

func spinAwake(cpus int) {}
