"""The five workloads, by the names ``BENCHMARK.json`` gives them."""

from bench.workloads.restore import restore_large
from bench.workloads.save import save_large, save_small
from bench.workloads.service import service_mix
from bench.workloads.train import train_loop

FACTORIES = {
    "save_large": save_large,
    "save_small": save_small,
    "restore_large": restore_large,
    "train_loop": train_loop,
    "service_mix": service_mix,
}
