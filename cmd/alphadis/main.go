// Command alphadis disassembles a program image produced by alphaasm.
//
// Usage:
//
//	alphadis prog.img
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/workload"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: alphadis prog.img")
		os.Exit(2)
	}
	prog, _, err := workload.Load("", "", flag.Arg(0), 1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("entry: %#x\n", prog.Entry)
	for _, seg := range prog.Segments {
		fmt.Printf("segment %#x (%d bytes)\n", seg.Addr, len(seg.Data))
		for off := 0; off+4 <= len(seg.Data); off += 4 {
			w := alpha.Word(uint32(seg.Data[off]) | uint32(seg.Data[off+1])<<8 |
				uint32(seg.Data[off+2])<<16 | uint32(seg.Data[off+3])<<24)
			pc := seg.Addr + uint64(off)
			fmt.Printf("  %#010x:  %08x  %s\n", pc, uint32(w), alpha.DisassembleWord(w, pc))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alphadis:", err)
	os.Exit(1)
}
