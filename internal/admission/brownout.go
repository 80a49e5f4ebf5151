package admission

import (
	"sync"
	"time"
)

// BrownoutConfig shapes a Brownout detector.
type BrownoutConfig struct {
	// Enter is how long the overload signal must persist before the
	// brownout activates (default 2s).
	Enter time.Duration
	// Exit is how long the signal must stay clear before the brownout
	// lifts (default 2×Enter).
	Exit time.Duration
	// Now is the clock (nil = time.Now).
	Now func() time.Time
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.Enter <= 0 {
		c.Enter = 2 * time.Second
	}
	if c.Exit <= 0 {
		c.Exit = 2 * c.Enter
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Brownout turns a noisy per-request overload signal into a stable
// serving mode: active only after the signal has persisted for Enter,
// and it stays active until the signal has been clear for Exit —
// hysteresis on both edges so the mode cannot flap per request. While
// active, the server serves non-priority traffic from cache hits only.
type Brownout struct {
	cfg BrownoutConfig

	mu          sync.Mutex
	active      bool
	streakStart time.Time // first overloaded sample of the current streak
	lastOver    time.Time // most recent overloaded sample
}

// NewBrownout returns a detector with cfg's knobs resolved.
func NewBrownout(cfg BrownoutConfig) *Brownout {
	return &Brownout{cfg: cfg.withDefaults()}
}

// Note folds one sample of the overload signal.
func (b *Brownout) Note(overloaded bool) {
	now := b.cfg.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if overloaded {
		if b.streakStart.IsZero() {
			b.streakStart = now
		}
		b.lastOver = now
		if !b.active && now.Sub(b.streakStart) >= b.cfg.Enter {
			b.active = true
		}
		return
	}
	// A calm sample only matters once the signal has been quiet for the
	// exit window; isolated calm samples inside a storm are noise.
	if !b.lastOver.IsZero() && now.Sub(b.lastOver) >= b.cfg.Exit {
		b.active = false
		b.streakStart = time.Time{}
		b.lastOver = time.Time{}
	} else if !b.active && !b.lastOver.IsZero() && now.Sub(b.lastOver) >= b.cfg.Enter {
		// Not yet active and the streak went quiet: reset it so a later
		// blip does not inherit this streak's age.
		b.streakStart = time.Time{}
		b.lastOver = time.Time{}
	}
}

// Active reports whether the brownout is in force.
func (b *Brownout) Active() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}
