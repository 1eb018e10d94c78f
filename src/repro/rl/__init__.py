"""Reinforcement-learning machinery: Q-networks, replay, DQN/PPO agents
and prioritized replay."""

from .dqn import AgentConfig, DQNAgent, DoubleDQNAgent
from .network import DenseLayer, QNetwork, adam_step
from .ppo import PPOAgent, PPOConfig, PolicyValueNetwork, ppo_loss_and_grads
from .priority import PrioritizedReplayMemory, SumTree
from .replay import ReplayMemory, Transition
from .schedule import ExponentialSchedule, LinearSchedule, paper_epsilon_schedule

__all__ = [
    "AgentConfig",
    "DQNAgent",
    "DenseLayer",
    "DoubleDQNAgent",
    "ExponentialSchedule",
    "LinearSchedule",
    "PPOAgent",
    "PPOConfig",
    "PolicyValueNetwork",
    "PrioritizedReplayMemory",
    "QNetwork",
    "ReplayMemory",
    "SumTree",
    "Transition",
    "adam_step",
    "paper_epsilon_schedule",
    "ppo_loss_and_grads",
]
