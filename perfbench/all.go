package main

import (
	"fmt"
	"os"
	"os/exec"
)

// runAll runs every workload in a process of its own, one after another, so
// each reports its own set-up time and peak memory, and passes their reports
// and result lines through. It returns non-zero when any workload failed.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
