"""The interpreter's execution options, decided once.

The paper's LLEE makes one translation-strategy decision per
executable ("offline translation when possible, online translation
whenever necessary", Section 4.1).  :class:`EngineConfig` is that
decision for the interpreter tiers.  It holds the eight execution
options and owns the four jobs that depend on them:

* :meth:`EngineConfig.resolve` applies the option implications;
* :meth:`EngineConfig.cache_key` names a decoded module's options;
* :meth:`EngineConfig.add_arguments` / :meth:`EngineConfig.from_args`
  declare and read the command-line flags;
* :meth:`EngineConfig.build` makes the decode/tier-2 cache pair.

``privileged``, ``entry``, ``args`` and ``executable_timestamp`` are
run arguments, not options: they are read at run time and never baked
into decoded code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional


class ConfigError(ValueError):
    """An option combination the command line rejects (exit status 2)."""


@dataclass(frozen=True)
class EngineConfig:
    #: ``"fast"`` (pre-decoded, closure-threaded) or ``"reference"``
    #: (the semantic oracle).
    engine: str = "fast"
    #: Run under llva-san shadow-memory checking.
    sanitize: bool = False
    #: Compile hot functions to Python bytecode.
    tier2: bool = False
    #: Invocations before promotion (None = the tier-2 default).
    tier2_threshold: Optional[int] = None
    #: Trace-guided superblock codegen.
    superblocks: bool = False
    #: On-stack replacement at hot tier-1 loop headers.
    osr: bool = False
    #: Compile on a background service; swap in at safe points.
    async_compile: bool = False
    #: Background compile workers (None = the service default).
    compile_workers: Optional[int] = None

    def resolve(self) -> "EngineConfig":
        """Apply the implications, once.  llva-san pins execution to
        tier 1 (its fault sites are per instruction, and compiled code
        merges them away); otherwise superblocks, OSR and async
        compilation each imply tier 2, and tier 2 implies the fast
        engine.  Options the resolved run does not use are cleared, so
        configs that run alike resolve equal."""
        tier2 = not self.sanitize and bool(
            self.tier2 or self.superblocks or self.osr
            or self.async_compile)
        async_compile = tier2 and bool(self.async_compile)
        return dataclasses.replace(
            self,
            engine="fast" if tier2 else self.engine,
            tier2=tier2,
            tier2_threshold=self.tier2_threshold if tier2 else None,
            superblocks=tier2 and bool(self.superblocks),
            osr=tier2 and bool(self.osr),
            async_compile=async_compile,
            compile_workers=self.compile_workers if async_compile
            else None)

    def cache_key(self) -> str:
        """Every field of the resolved config: two configs share a
        cached decode exactly when they resolve equal."""
        resolved = self.resolve()
        return ",".join("{0}={1}".format(field.name,
                                         getattr(resolved, field.name))
                        for field in dataclasses.fields(resolved))

    def build(self, module, target=None, storage=None,
              storage_key: Optional[str] = None,
              executable_timestamp: Optional[float] = None,
              compile_service=None):
        """The ``(DecodeCache, Tier2Cache or None)`` pair this config
        runs on.  With a *storage* API the tier-2 cache persists its
        translations under *storage_key*; async compilation uses
        *compile_service* when given (the LLEE's shared one), else a
        private service of ``compile_workers`` threads."""
        from repro.execution.fastpath import DecodeCache
        from repro.execution.tier2 import DEFAULT_THRESHOLD, Tier2Cache

        config = self.resolve()
        target = target or module.target_data
        decode_cache = DecodeCache(target, sanitize=config.sanitize,
                                   osr=config.osr)
        if not config.tier2:
            return decode_cache, None
        tier2_cache = Tier2Cache(
            module, target,
            threshold=DEFAULT_THRESHOLD if config.tier2_threshold is None
            else config.tier2_threshold,
            superblocks=config.superblocks, osr=config.osr,
            async_compile=config.async_compile,
            compile_workers=config.compile_workers,
            compile_service=compile_service if config.async_compile
            else None)
        if storage is not None:
            tier2_cache.attach_storage(
                storage, storage_key,
                executable_timestamp=executable_timestamp)
        return decode_cache, tier2_cache

    # -- the command line ------------------------------------------------

    @staticmethod
    def add_arguments(parser, command: str) -> None:
        """Declare the execution flags of *command*: ``run``, ``stats``,
        ``profile`` or ``bench``.  ``profile`` runs the whole tier
        ladder by default and takes ``--no-*`` flags to peel layers
        off; ``bench`` runs both engines, so it has no ``--engine``,
        and promotes on first call by default."""
        if command != "bench":
            parser.add_argument(
                "--engine", choices=("fast", "reference"),
                default="fast" if command == "profile" else "reference",
                help="interpreter engine (ignored with --target): "
                     "'fast' is the pre-decoded closure-threaded "
                     "engine, 'reference' the semantic oracle; tier 2 "
                     "runs on 'fast' only")
        if command == "profile":
            parser.add_argument("--no-tier2", action="store_true",
                                help="profile pure tier-1 execution")
            parser.add_argument("--no-superblocks", action="store_true",
                                help="tier 2 without trace-guided "
                                     "superblocks")
            parser.add_argument("--no-osr", action="store_true",
                                help="tier 2 without on-stack "
                                     "replacement")
        else:
            parser.add_argument(
                "--sanitize", action="store_true",
                help="run under llva-san: shadow-memory checking with "
                     "redzones, a free quarantine, and per-allocation "
                     "fault reports (interpreter engines only)")
            parser.add_argument(
                "--tier2", action="store_true",
                help="enable the tiered translator: hot functions are "
                     "compiled to Python bytecode (implies --engine "
                     "fast)")
            parser.add_argument(
                "--superblocks", action="store_true",
                help="tier 2 compiles hot traces as straight-line "
                     "superblocks guided by the block profile "
                     "(implies --tier2)")
            parser.add_argument(
                "--osr", action="store_true",
                help="on-stack replacement: a tier-1 activation stuck "
                     "in a hot loop enters tier 2 mid-function "
                     "(implies --tier2)")
        parser.add_argument(
            "--tier2-threshold", type=int, metavar="N",
            default=0 if command == "bench" else None,
            help="invocations before a function is promoted to tier 2 "
                 "(0 = compile on first call)")
        parser.add_argument(
            "--async-compile", action="store_true",
            help="compile tier-2 units on a background worker instead "
                 "of on the promoting call; units swap in at the next "
                 "safe point (implies --tier2)")
        parser.add_argument(
            "--compile-workers", type=int, default=None, metavar="N",
            help="background compile worker threads (default 1)")

    @classmethod
    def from_args(cls, args, command: str) -> "EngineConfig":
        """The resolved config the flags of *command* ask for.  Raises
        :class:`ConfigError` when ``--sanitize`` or a tier-2 option
        meets ``--target``, or a tier-2 option meets ``--sanitize``."""
        if command == "profile":
            tier2 = args.engine == "fast" and not args.no_tier2
            layers = dict(tier2=tier2,
                          superblocks=tier2 and not args.no_superblocks,
                          osr=tier2 and not args.no_osr,
                          async_compile=tier2 and args.async_compile)
        else:
            layers = dict(sanitize=args.sanitize, tier2=args.tier2,
                          superblocks=args.superblocks, osr=args.osr,
                          async_compile=args.async_compile)
        config = cls(engine=getattr(args, "engine", "fast"),
                     tier2_threshold=args.tier2_threshold,
                     compile_workers=args.compile_workers, **layers)
        target = getattr(args, "target", None)
        # Judge the implied --tier2 too: --superblocks --target x86 is
        # as wrong as --tier2 --target x86.
        tiered = dataclasses.replace(config, sanitize=False).resolve().tier2
        if config.sanitize and target:
            raise ConfigError("--sanitize applies to the interpreter "
                              "engines only, not --target")
        if tiered and command == "stats" and (target or config.sanitize):
            raise ConfigError("--tier2 applies to the unsanitized "
                              "interpreter engines only")
        if tiered and target:
            raise ConfigError("--tier2 applies to the interpreter "
                              "engines only, not --target")
        if tiered and config.sanitize:
            raise ConfigError("--sanitize pins execution to tier 1; "
                              "--tier2 has no effect under llva-san")
        return config.resolve()
