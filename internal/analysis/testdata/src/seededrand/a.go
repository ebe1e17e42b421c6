package fixture

import (
	"math/rand"
	"time"
)

func draw(seed int64) int {
	n := rand.Intn(10) // want "shared global source"
	rng := rand.New(rand.NewSource(seed))
	n += rng.Intn(10)                            // methods on a seeded *rand.Rand are fine
	src := rand.NewSource(time.Now().UnixNano()) // want "time.Now"
	n += rand.New(src).Intn(10)
	rand.Shuffle(2, func(i, j int) {}) // want "shared global source"
	n += rand.Intn(2)                  //llmpq:allow(seededrand): demo of a justified suppression
	return n
}

// chaosSchedule mirrors the fault-injector idiom: schedules must derive
// every draw from an explicit seed so runs replay byte-for-byte.
func chaosSchedule(seed int64, stages int) []float64 {
	at := make([]float64, stages)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed)) // derived seed is fine
	for i := range at {
		at[i] = rng.Float64()
	}
	if rand.Float64() < 0.5 { // want "shared global source"
		at[0] = 0
	}
	wall := rand.New(rand.NewSource(time.Now().Unix())) // want "time.Now" "time.Now"
	at[stages-1] += wall.Float64()
	return at
}
