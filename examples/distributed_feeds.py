"""Distinct sampling across distributed noisy feeds, two ways.

Part 1 - regional shards, explicit routing: three regional ingestion
points receive overlapping slices of the same logical event stream
(each event re-observed with sensor noise, often in several regions at
once).  Each region runs a shard sampler; a central coordinator merges
the shard *sketches* - not the data - and answers "one random distinct
event" and "how many distinct events" over the union.  Because all
shards share one grid + hash configuration, their accept/reject
decisions are mutually consistent and the merge is exact.

Part 2 - one machine, parallel shard executors: the same merge
machinery scales a *local* ingestion job across worker processes.
``PipelineSpec(executor="process")`` deals chunks round-robin to shard
replicas living in worker processes; on query, the workers ship their
shard states home and the coordinator merges every shard in one pass.
The parallel pipeline's state is
fingerprint-identical to the serial one - the executor is a throughput
knob, not a semantic one.

Run:  python examples/distributed_feeds.py
"""

import random

from repro.api import L0InfiniteSpec, PipelineSpec
from repro.distributed import DistributedRobustSampler
from repro.engine import state_fingerprint

DIM = 4
ALPHA = 0.2
NUM_EVENTS = 300
REGIONS = 3


def regional_coordinator() -> None:
    rng = random.Random(5)
    # One spec describes every shard; the coordinator derives the shared
    # grid/hash from it so all regions' decisions are consistent.
    coordinator = DistributedRobustSampler(
        spec=L0InfiniteSpec(
            alpha=ALPHA, dim=DIM, seed=42,
            expected_stream_length=NUM_EVENTS * 6,
        ),
        num_shards=REGIONS,
    )

    # Each event: a ground-truth feature vector, observed 1-6 times,
    # each observation routed to a random region with noise.
    events = [
        tuple(rng.uniform(0, 50) for _ in range(DIM)) for _ in range(NUM_EVENTS)
    ]
    observations = 0
    for event in events:
        for _ in range(rng.randint(1, 6)):
            noisy = tuple(x + rng.uniform(-ALPHA / 4, ALPHA / 4) for x in event)
            coordinator.route(noisy, shard=rng.randrange(REGIONS))
            observations += 1

    print(f"{NUM_EVENTS} distinct events, {observations} observations "
          f"across {REGIONS} regions\n")
    for i in range(REGIONS):
        shard = coordinator.shard(i)
        print(f"  region {i}: saw {shard.points_seen:4d} observations, "
              f"sketch = {shard.space_words()} words "
              f"(rate 1/{shard.rate_denominator})")

    merged = coordinator.merged_sampler()
    print(f"\ncoordinator merged {coordinator.communication_words()} words "
          f"(vs {observations * DIM} words of raw data)")
    print(f"distinct events (robust F0): {merged.estimate_f0():.0f} "
          f"(true {NUM_EVENTS})")
    sample = merged.sample(random.Random(1))
    print(f"random distinct event: {tuple(round(x, 2) for x in sample.vector)}")


def parallel_pipeline() -> None:
    rng = random.Random(9)
    events = [
        tuple(rng.uniform(0, 50) for _ in range(DIM)) for _ in range(NUM_EVENTS)
    ]
    stream = []
    for event in events:
        for _ in range(rng.randint(1, 6)):
            stream.append(
                tuple(x + rng.uniform(-ALPHA / 4, ALPHA / 4) for x in event)
            )
    rng.shuffle(stream)

    def spec(executor):
        return PipelineSpec(
            alpha=ALPHA, dim=DIM, seed=7, num_shards=4, batch_size=64,
            executor=executor, num_workers=2,
        )

    serial = spec("serial").build()
    serial.extend(stream)

    # Same spec, same stream - but chunks run on worker processes, and
    # the query first brings the shard states home, then merges them.
    # Context-manage parallel pipelines: close() releases the workers.
    with spec("process").build() as parallel:
        parallel.extend(stream)
        merged = parallel.merge()
        print(f"\n{len(stream)} observations through 4 shards on "
              f"2 process workers")
        print(f"distinct events (robust F0): {merged.estimate_f0():.0f} "
              f"(true {NUM_EVENTS})")
        identical = state_fingerprint(parallel) == state_fingerprint(serial)
        print(f"state identical to the serial executor's: {identical}")


def main() -> None:
    regional_coordinator()
    parallel_pipeline()


if __name__ == "__main__":
    main()
