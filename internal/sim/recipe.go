package sim

import (
	"fmt"

	"tkplq/internal/iupt"
)

// The dataset recipe of the command-line tools. A gendata file only matches
// the space — and the table tkplq or tkplqd would have generated itself —
// when all three derive building, movement and positioning from -dataset,
// -objects, -duration and -seed the same way, so they share it from here.

// BuildingByName builds the building of a -dataset value: "syn" is the
// default multi-floor synthetic building, "rd" the real-data analog floor.
func BuildingByName(name string) (*Building, error) {
	switch name {
	case "syn":
		return Generate(DefaultBuildingConfig())
	case "rd":
		return RealDataFloor()
	default:
		return nil, fmt.Errorf("unknown dataset %q (want syn or rd)", name)
	}
}

// CLIMovementConfig is the paper's movement model over the requested fleet
// and span, with every object alive for at least half of it.
func CLIMovementConfig(objects int, duration iupt.Time, seed int64) MovementConfig {
	cfg := DefaultMovementConfig()
	cfg.Objects, cfg.Duration, cfg.Seed = objects, duration, seed
	cfg.MinLifespan, cfg.MaxLifespan = duration/2, duration
	return cfg
}

// CLIPositioningConfig is the paper's default positioning (T = 3 s, mss = 4,
// µ = 5 m), seeded one past the movement seed. gendata's -T, -mss and -mu
// override its fields.
func CLIPositioningConfig(seed int64) PositioningConfig {
	cfg := DefaultPositioningConfig()
	cfg.Seed = seed + 1
	return cfg
}

// CLIRecords are the IUPT records tkplq and tkplqd start from: read from a
// gendata file when path is set, in file order, otherwise generated here
// exactly as gendata would have, in canonical (T, arrival) order.
func CLIRecords(b *Building, path, format string, objects int, duration iupt.Time, seed int64) ([]iupt.Record, error) {
	if path != "" {
		return iupt.ReadFile(path, format)
	}
	trajs, err := SimulateMovement(b, CLIMovementConfig(objects, duration, seed))
	if err != nil {
		return nil, err
	}
	return generateRecords(b, trajs, CLIPositioningConfig(seed))
}
