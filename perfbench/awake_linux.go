package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// awakeEnv marks the child process keepAwake starts; its value is the
// number of spinning threads.
const awakeEnv = "PERFBENCH_AWAKE"

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// keepAwake starts a child process with one thread per CPU, each spinning at
// the SCHED_IDLE policy, and returns a function that stops the child and
// waits for it to end. A SCHED_IDLE thread runs only when nothing else wants
// its CPU and is preempted as soon as something does, so the fleet keeps
// every cycle it asks for, but no CPU ever goes idle. On a virtual machine
// an idle CPU halts, and waking it again waits on the host's scheduler,
// whose delay depends on whatever else the host runs; a sub-millisecond
// request crosses several such wake-ups. This is the benchmark's stand-in
// for booting the machine with idle=poll.
func keepAwake(cpus int) (func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("keep awake: %w", err)
	}
	started := make(chan error, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The child's Pdeathsig fires when the thread that started it
		// ends, so that thread stays locked to this goroutine until the
		// child is gone: no other goroutine can lock it and take it down.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", awakeEnv, cpus))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		<-stop
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	if err := <-started; err != nil {
		<-done
		return nil, fmt.Errorf("keep awake: %w", err)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			<-done
		})
	}, nil
}

// spinAwake is the child's body: cpus threads spinning at SCHED_IDLE until
// the process is killed.
func spinAwake(cpus int) {
	for i := 0; i < cpus; i++ {
		go func() {
			runtime.LockOSThread()
			param := struct{ priority int32 }{0}
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			for {
				cpuRelax()
			}
		}()
	}
	select {}
}
