package mapping

import (
	"fmt"

	"repro/internal/partition"
)

// PartitionInstance returns the graph approach a partitions for in and the
// edge weights its candidate selection scores the cut with.
func PartitionInstance(a Approach, in Input) (*partition.Graph, partition.EdgeWeightSet, error) {
	if err := in.defaults(); err != nil {
		return nil, nil, err
	}
	switch a {
	case Top:
		g, lat := topGraph(&in)
		return g, lat, nil
	case Place:
		g, _, bw := placeGraph(&in)
		return g, bw, nil
	case Profile:
		g, _, bw, err := profileGraph(&in)
		return g, bw, err
	default:
		return nil, nil, fmt.Errorf("%w: unknown approach %q", ErrBadInput, a)
	}
}
