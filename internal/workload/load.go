package workload

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
)

// ErrNoProgram is Load's error when the command line names no program.
var ErrNoProgram = errors.New("one of -workload, -src, or -img is required (see -list)")

// Load returns the guest program a command line names through its
// -workload, -src and -img flags — a workload generated at scale, an
// Alpha assembly source file, or an alphaasm program image, tried in
// that order — and the name to report it under.
func Load(name, src, img string, scale int) (*alphaprog.Program, string, error) {
	switch {
	case name != "":
		spec, err := ByName(name, scale)
		if err != nil {
			return nil, "", err
		}
		p, err := spec.Program()
		return p, name, err
	case src != "":
		text, err := os.ReadFile(src)
		if err != nil {
			return nil, "", err
		}
		p, err := alphaasm.Assemble(string(text))
		return p, src, err
	case img != "":
		f, err := os.Open(img)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		p, err := alphaprog.Load(f)
		return p, img, err
	}
	return nil, "", ErrNoProgram
}

// List writes the -list table: every workload with its description.
func List(w io.Writer) {
	for _, name := range Names() {
		fmt.Fprintf(w, "  %-8s %s\n", name, generators[name].desc)
	}
}
