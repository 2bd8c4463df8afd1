package main

import (
	"math/rand"

	"streamkf/internal/stream"
)

// rampInput streams gen.Ramp's sequence, v_k = start + slope*k + noise*N(0,1),
// one reading at a time so a long run needs no prebuilt slice. The smoke
// test pins it to gen.Ramp for the same seed.
type rampInput struct {
	rng                 *rand.Rand
	start, slope, noise float64
	k                   int
	val                 [1]float64
}

func newRampInput(start, slope, noise float64, seed int64) *rampInput {
	return &rampInput{rng: rand.New(rand.NewSource(seed)), start: start, slope: slope, noise: noise}
}

// next returns reading k. Its Values slice is reused by the following
// call: Offer and Process copy what they keep.
func (g *rampInput) next() stream.Reading {
	g.val[0] = g.start + g.slope*float64(g.k) + g.noise*g.rng.NormFloat64()
	r := stream.Reading{Seq: g.k, Time: float64(g.k), Values: g.val[:]}
	g.k++
	return r
}

// walkInput streams gen.RandomWalk's sequence, v_k = v_{k-1} + step*N(0,1).
type walkInput struct {
	rng  *rand.Rand
	step float64
	k    int
	val  [1]float64
}

func newWalkInput(start, step float64, seed int64) *walkInput {
	w := &walkInput{rng: rand.New(rand.NewSource(seed)), step: step}
	w.val[0] = start
	return w
}

func (g *walkInput) next() stream.Reading {
	g.val[0] += g.step * g.rng.NormFloat64()
	r := stream.Reading{Seq: g.k, Time: float64(g.k), Values: g.val[:]}
	g.k++
	return r
}

// input is a seeded reading stream.
type input interface{ next() stream.Reading }
