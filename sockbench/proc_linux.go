package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setParentDeathSignal makes the kernel kill the daemon if the benchmark
// dies without running its cleanup.
func setParentDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// medianRSSMiB samples the process's resident set every 100 ms until
// stop is closed and returns the median sample, NaN when none could be
// read. Peaks are left out on purpose: VmHWM and the sampled maximum
// both depend on where GC cycles fall relative to set-up and to the
// large transient allocations of a publish, and varied by up to 2x
// between runs of one seed.
func medianRSSMiB(pid int, stop <-chan struct{}) float64 {
	var samples []float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if kb, err := statusKB(pid, "VmRSS:"); err == nil {
			samples = append(samples, kb/1024)
		}
		select {
		case <-stop:
			if len(samples) == 0 {
				return math.NaN()
			}
			return quantile(samples, 0.5)
		case <-tick.C:
		}
	}
}

// readCPU reads the machine's cumulative CPU time and the part of it the
// hypervisor stole from the first line of /proc/stat; zero when it
// cannot be read.
func readCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	var s cpuSample
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuSample{}
		}
		s.total += x
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// statusKB reads one kB-valued field of /proc/<pid>/status.
func statusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
