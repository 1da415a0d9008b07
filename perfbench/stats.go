package main

import (
	"hash/fnv"
	"math"
	"sort"
	"time"

	"disqo/internal/types"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// raw samples: the smallest sample at or above p percent of them. It
// sorts xs in place and returns 0 for no samples.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest hashes a result exactly: column names, then every value's kind
// and bits in row order. Equal digests mean byte-identical results.
func digest(cols []string, rows [][]types.Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	put := func(kind byte, bits uint64) {
		buf[0] = kind
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range cols {
		put('c', uint64(len(c)))
		h.Write([]byte(c))
	}
	for _, row := range rows {
		put('r', uint64(len(row)))
		for _, v := range row {
			switch v.Kind() {
			case types.KindInt:
				put('i', uint64(v.Int()))
			case types.KindFloat:
				put('f', math.Float64bits(v.Float()))
			case types.KindString:
				put('s', uint64(len(v.Str())))
				h.Write([]byte(v.Str()))
			case types.KindBool:
				b := uint64(0)
				if v.Bool() {
					b = 1
				}
				put('b', b)
			default:
				put('n', uint64(v.Kind()))
			}
		}
	}
	return h.Sum64()
}
