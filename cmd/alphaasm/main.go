// Command alphaasm assembles Alpha source text into a program image.
//
// Usage:
//
//	alphaasm -o prog.img prog.s
//	alphaasm -list prog.s        # print a disassembly listing
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/workload"
)

func main() {
	out := flag.String("o", "", "output image file (default: <input>.img)")
	list := flag.Bool("list", false, "print a disassembly listing instead of writing an image")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: alphaasm [-o out.img] [-list] input.s")
		os.Exit(2)
	}
	prog, _, err := workload.Load("", flag.Arg(0), "", 1)
	if err != nil {
		fatal(err)
	}
	if *list {
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
		return
	}
	name := *out
	if name == "" {
		name = flag.Arg(0) + ".img"
	}
	f, err := os.Create(name)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := prog.Save(f); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: entry %#x, %d bytes in %d segments\n",
		name, prog.Entry, prog.TotalBytes(), len(prog.Segments))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alphaasm:", err)
	os.Exit(1)
}
