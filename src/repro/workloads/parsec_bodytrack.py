"""parsec-bodytrack — particle-filter body tracker synthetic analogue.

Structure: one initialization region, then 4 frames of 22 regions each
(image pipeline: load, two edge passes, gradient; five annealing layers of
{project, weights, resample}; then estimate, blur, update) — 89 dynamic
barriers as in Fig. 1 / Table III ("simlarge" input).

Data-dependent heterogeneity: the particle count is drawn per frame (and
decays per annealing layer), so particle-phase regions in the *same*
cluster differ in length by up to ~2x.  This is the workload that most
stresses multiplier scaling and produces Table III's mixed multipliers
(16.0, 12.0, 4.1, 19.5, ...).
"""

from __future__ import annotations

from repro.trace import generators as gen
from repro.trace.program import BlockExec
from repro.workloads.base import PhaseInstance, Workload

_FRAMES = 4
_LAYERS = 5
_IMAGE_LINES = 512
_EDGE_LINES = 512
_PARTICLE_LINES = 448
_WEIGHT_LINES = 128
_MODEL_LINES = 64


class ParsecBodytrack(Workload):
    """Synthetic parsec-bodytrack (simlarge): 89 barriers, 4 frames."""

    name = "parsec-bodytrack"
    input_size = "large"

    def _build(self) -> None:
        self._alloc("image", self._scaled(_IMAGE_LINES))
        self._alloc("edges", self._scaled(_EDGE_LINES))
        self._alloc("particles", self._scaled(_PARTICLE_LINES))
        self._alloc("weights", self._scaled(_WEIGHT_LINES))
        self._alloc("model", self._scaled(_MODEL_LINES))

        self._bb("bt_track_init_loop", instructions=50)
        self._bb("bt_track_init_fill", instructions=9, mlp=4.0)
        self._bb("bt_load_loop", instructions=40)
        self._bb("bt_load_copy", instructions=9, mlp=4.0)
        self._bb("bt_edge_loop", instructions=45)
        self._bb("bt_edge_kernel", instructions=27, mlp=3.0, mispredict_rate=0.01)
        self._bb("bt_grad_loop", instructions=40)
        self._bb("bt_grad_kernel", instructions=21, mlp=3.0)
        self._bb("bt_project_loop", instructions=55)
        self._bb("bt_project_kernel", instructions=42, mlp=2.0, mispredict_rate=0.02)
        self._bb("bt_weights_loop", instructions=60)
        self._bb("bt_weights_kernel", instructions=96, mlp=1.5, mispredict_rate=0.03)
        self._bb("bt_anneal_init", instructions=36, mlp=2.0,
                 mispredict_rate=0.02)
        self._bb("bt_resample_loop", instructions=45)
        self._bb("bt_resample_kernel", instructions=24, mlp=1.5, mispredict_rate=0.04)
        self._bb("bt_estimate_loop", instructions=40)
        self._bb("bt_estimate_kernel", instructions=18, mlp=2.0)
        self._bb("bt_blur_loop", instructions=40)
        self._bb("bt_blur_kernel", instructions=24, mlp=3.0)
        self._bb("bt_update_loop", instructions=35)
        self._bb("bt_update_kernel", instructions=15, mlp=3.0)

        self._schedule.append(PhaseInstance("track_init", 0))
        for frame in range(_FRAMES):
            for phase in ("load", "edge", "edge", "grad"):
                self._schedule.append(PhaseInstance(phase, frame))
            for layer in range(_LAYERS):
                for phase in ("project", "weights", "resample"):
                    self._schedule.append(PhaseInstance(phase, frame, layer))
            for phase in ("estimate", "blur", "update"):
                self._schedule.append(PhaseInstance(phase, frame))

    def _particles_this(self, frame: int, layer: int) -> int:
        """Per-frame particle count, decaying over annealing layers.

        Drawn deterministically per frame (independent of thread count), so
        the same heterogeneity appears at 8 and 32 cores.
        """

        def draw() -> int:
            rng = self._rng("particles", frame)
            base = 0.9 + 0.2 * float(rng.random())
            per_frame = self.array_lines("particles") * base
            return max(2, round(per_frame * (0.97**layer)))

        return gen.memoized(("particles", frame, layer), draw)

    def _build_thread(
        self, inst: PhaseInstance, region_index: int, thread_id: int
    ) -> list[BlockExec]:
        img_base, img_n = self._partition("image", thread_id)
        edge_base, edge_n = self._partition("edges", thread_id)

        if inst.phase == "track_init":
            model_base, model_n = self._partition("model", thread_id)
            part_base, part_n = self._partition("particles", thread_id)
            refs = gen.concat(
                gen.strided_sweep(model_base, model_n, write=True),
                gen.strided_sweep(part_base, part_n, write=True),
            )
            return [
                BlockExec(self.block("bt_track_init_loop"), count=1),
                BlockExec(self.block("bt_track_init_fill"), count=model_n + part_n,
                          lines=refs[0], writes=refs[1]),
            ]

        if inst.phase == "load":
            refs = gen.strided_sweep(img_base, img_n, write=True)
            return [
                BlockExec(self.block("bt_load_loop"), count=1),
                BlockExec(self.block("bt_load_copy"), count=img_n,
                          lines=refs[0], writes=refs[1]),
            ]

        if inst.phase == "edge":
            refs = gen.concat(
                gen.stencil_sweep(img_base, img_n, radius=1, write_center=False),
                gen.strided_sweep(edge_base, edge_n, write=True),
            )
            return [
                BlockExec(self.block("bt_edge_loop"), count=1),
                BlockExec(self.block("bt_edge_kernel"), count=img_n,
                          lines=refs[0], writes=refs[1]),
            ]

        if inst.phase == "grad":
            refs = gen.read_modify_write_sweep(edge_base, edge_n)
            return [
                BlockExec(self.block("bt_grad_loop"), count=1),
                BlockExec(self.block("bt_grad_kernel"), count=edge_n,
                          lines=refs[0], writes=refs[1]),
            ]

        if inst.phase in ("project", "weights", "resample"):
            n_total = self._particles_this(inst.iteration, inst.param)
            n_mine = max(1, n_total // self.num_threads)
            part_base = self.array_base("particles")
            part_total = self.array_lines("particles")
            w_base, w_n = self._partition("weights", thread_id)
            rng = self._rng(inst.phase, inst.iteration, inst.param, thread_id)

            my_part_base, my_part_n = self._partition("particles", thread_id)
            own_slice = max(1, min(n_mine, my_part_n))
            if inst.phase == "project":
                # Read the shared body model and particle pool, write only
                # this thread's own particle slice (as real bodytrack does;
                # write-sharing the pool would ping-pong lines at 32 cores).
                refs = gen.concat(
                    gen.strided_sweep(self.array_base("model"),
                                      self.array_lines("model")),
                    gen.random_gather(rng, part_base, part_total, n_mine),
                    gen.strided_sweep(my_part_base, own_slice, write=True),
                )
                kernel = "bt_project_kernel"
            elif inst.phase == "weights":
                refs = gen.concat(
                    gen.random_gather(rng, self.array_base("image"),
                                      self.array_lines("image"), n_mine),
                    gen.read_modify_write_sweep(w_base, min(n_mine, w_n)),
                )
                kernel = "bt_weights_kernel"
            else:  # resample
                # Weights are normalized through a parallel reduction (own
                # partition plus a small shared accumulator), then particles
                # are redrawn into this thread's own slice.
                refs = gen.concat(
                    gen.strided_sweep(w_base, w_n),
                    gen.reduction_accumulate(self.array_base("weights"), 2,
                                             rounds=2),
                    gen.random_gather(rng, part_base, part_total, n_mine),
                    gen.strided_sweep(my_part_base, own_slice, write=True),
                )
                kernel = "bt_resample_kernel"

            blocks = [
                BlockExec(self.block(f"bt_{inst.phase}_loop"), count=1),
                BlockExec(self.block(kernel), count=n_mine,
                          lines=refs[0], writes=refs[1]),
            ]
            if inst.param == 0:
                # The first annealing layer re-initializes per-particle
                # state (as real bodytrack does), which also makes the
                # coherence-cold layer-0 regions separable by BBV.
                blocks.insert(1, BlockExec(self.block("bt_anneal_init"),
                                           count=max(1, n_mine // 2)))
            return blocks

        if inst.phase == "estimate":
            w_base, w_n = self._partition("weights", thread_id)
            part_base, part_n = self._partition("particles", thread_id)
            refs = gen.concat(
                gen.strided_sweep(w_base, w_n),
                gen.strided_sweep(part_base, part_n),
            )
            return [
                BlockExec(self.block("bt_estimate_loop"), count=1),
                BlockExec(self.block("bt_estimate_kernel"), count=w_n + part_n,
                          lines=refs[0], writes=refs[1]),
            ]

        if inst.phase == "blur":
            # Gaussian blur reads the image plane and writes a separate
            # output plane; the image itself stays in shared (S) state so
            # later per-particle gathers do not pay ownership transfers.
            refs = gen.concat(
                gen.stencil_sweep(img_base, img_n, radius=2,
                                  write_center=False),
                gen.strided_sweep(edge_base, edge_n, write=True),
            )
            return [
                BlockExec(self.block("bt_blur_loop"), count=1),
                BlockExec(self.block("bt_blur_kernel"), count=img_n,
                          lines=refs[0], writes=refs[1]),
            ]

        if inst.phase == "update":
            part_base, part_n = self._partition("particles", thread_id)
            refs = gen.read_modify_write_sweep(part_base, part_n)
            return [
                BlockExec(self.block("bt_update_loop"), count=1),
                BlockExec(self.block("bt_update_kernel"), count=part_n,
                          lines=refs[0], writes=refs[1]),
            ]

        raise AssertionError(f"unknown phase {inst.phase!r}")
