package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestSubmitRequiresMacro pins that -submit without -macro is refused
// with exit status 2 and a request for -macro, instead of handing the
// daemon a macro campaign the local flags did not ask for. The test
// re-runs its own binary with the mucfuzz command line after "--"; that
// child runs main.
func TestSubmitRequiresMacro(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"mucfuzz"}, args...)
		flag.CommandLine = flag.NewFlagSet("mucfuzz", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestSubmitRequiresMacro$", "--",
		"-submit", "127.0.0.1:1", "-steps", "10").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mucfuzz -submit without -macro: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "add -macro") {
		t.Fatalf("refusal does not ask for -macro:\n%s", out)
	}
}
