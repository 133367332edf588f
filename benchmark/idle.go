package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
)

// While it measures, the benchmark keeps every CPU out of the idle
// state: a child process — this binary, re-exec'd — holds on each CPU a
// spinning thread of the SCHED_IDLE class, which runs only where nothing
// else would and yields to any thread that wakes.
//
// On a virtual machine a CPU that has nothing to run halts, and waking
// a halted virtual CPU is the hypervisor's work; how long it takes
// changed by a quarter from one minute to the next on the reference
// box, and every workload whose threads park (pingpong_64, stream_64,
// eventloop_mmpp) changed with it. With the spinners ten runs of those
// spread half as far or less. What is measured is the facility on a
// machine that does not halt its CPUs (Linux's idle=poll); the
// spinners are a process of their own so that their CPU time stays out
// of cpu_s_per_mmsg.

// idlerEnv, when set, makes the binary the spinner process; its value
// is the pid of the process that started it.
const idlerEnv = "MPF_BENCHMARK_IDLER"

// idlerMain is the spinner process: it reports on standard output
// whether the spinners run and then lives until it is killed or its
// parent is gone. It does not return.
func idlerMain() {
	if err := idleSpin(); err != nil {
		fmt.Println(err)
		os.Exit(1)
	}
	fmt.Println("ok")
	exitWithParent(idlerEnv)
	os.Exit(1)
}

var idler struct {
	sync.Mutex
	cmd *exec.Cmd
}

// startIdler starts the spinner process and waits until it spins. A
// machine that cannot run it is measured with its CPUs halting, and
// the reason is returned for the record.
func startIdler(self string) error {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), idlerEnv+"="+strconv.Itoa(os.Getpid()))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	if line != "ok\n" {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("no idle spinners: %q", line)
	}
	idler.Lock()
	idler.cmd = cmd
	idler.Unlock()
	return nil
}

// stopIdler kills the spinner process and waits for it to end.
func stopIdler() {
	idler.Lock()
	defer idler.Unlock()
	if idler.cmd != nil {
		idler.cmd.Process.Kill()
		idler.cmd.Wait()
		idler.cmd = nil
	}
}
