package main

import (
	"flag"
	"io"
	"testing"
)

func TestCheckSweepFlags(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-quick"}, true},
		{[]string{"-sweep", "96x64x24", "-compare", "-fmt", "W4A4"}, true},
		{[]string{"-compare"}, false},
		{[]string{"-fmt", "W1A3"}, false},
		{[]string{"-quick", "-compare=false"}, false},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("localut-bench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("sweep", "", "")
		fs.String("fmt", "W1A3", "")
		fs.Bool("compare", false, "")
		fs.Bool("quick", false, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if err := checkSweepFlags(fs); (err == nil) != c.ok {
			t.Errorf("%v: err = %v, want ok=%v", c.args, err, c.ok)
		}
	}
}
