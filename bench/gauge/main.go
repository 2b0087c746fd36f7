// Command gauge is the benchmark's measure of how fast the programs' CPU
// is running. It is a fixed piece of work shaped like the programs under
// test, run as a process of its own: it starts, makes 512 KiB of
// din-style text with a fixed generator, parses it into records, hands
// the records in chunks over channels to two goroutines that each drive
// a direct-mapped tag array, prints the counts and exits.
//
// The benchmark times it from exec to exit before every op. A process
// start, the Go runtime, allocation, garbage collection and goroutine
// hand-offs slow in the host's slow spells as the programs' own do,
// which no loop inside the benchmark's process matched. The work must
// never change, or every reported time changes with it.
package main

import (
	"fmt"
	"sync"
)

type record struct {
	addr  uint64
	label byte
}

func main() {
	// Three lines in four are at sequential addresses, the rest random.
	var text []byte
	x := uint64(88172645463325252)
	for i := uint64(0); len(text) < 512<<10; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		a := x >> 40
		if i&3 != 0 {
			a = i * 4
		}
		text = append(text, '0'+byte(x%3), ' ')
		for s := 20; s >= 0; s -= 4 {
			text = append(text, "0123456789abcdef"[a>>s&15])
		}
		text = append(text, '\n')
	}

	var recs []record
	var a uint64
	label, first := byte(0), true
	for _, c := range text {
		switch {
		case c == '\n':
			recs = append(recs, record{a, label})
			a, first = 0, true
		case first:
			label, first = c, false
		case c == ' ':
		case c <= '9':
			a = a<<4 | uint64(c-'0')
		default:
			a = a<<4 | uint64(c-'a'+10)
		}
	}

	chans := [2]chan []record{make(chan []record, 4), make(chan []record, 4)}
	var misses [2]uint64
	var wg sync.WaitGroup
	for w := range chans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tags := make([]uint64, 8192<<w)
			for chunk := range chans[w] {
				for _, r := range chunk {
					set := r.addr >> 4 & uint64(len(tags)-1)
					if tags[set] != r.addr>>17 || r.label == '1' {
						tags[set] = r.addr >> 17
						misses[w]++
					}
				}
			}
		}()
	}
	for i := 0; i < len(recs); i += 4096 {
		chunk := make([]record, min(4096, len(recs)-i))
		copy(chunk, recs[i:])
		for _, ch := range chans {
			ch <- chunk
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	fmt.Println(len(recs), misses[0], misses[1])
}
